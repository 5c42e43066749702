"""Campaign runner: seeded, schedulable fault campaigns over a fabric run.

A :class:`ChaosCampaign` owns a list of :class:`~repro.chaos.faults
.FaultInjection`\\ s and arms one engine process per fault when attached to
a fabric. A campaign with no faults arms nothing at all -- it adds zero
events, zero RNG draws, zero behavioural drift, which is the
bit-identical guarantee the determinism tests pin down.

Fault timing can be randomized *reproducibly* through the engine's named
``"chaos"`` RNG stream (:func:`randomized_campaign`): the stream is keyed
by name, so chaos draws never perturb the sensor, transport, or scheduler
streams, and two same-seed campaigns land faults at identical times.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional, Sequence

from repro.chaos.faults import (
    CspotPartitionInjector,
    FaultInjection,
    HpcNodeFailureInjector,
    UePowerLossInjector,
)
from repro.chaos.report import FaultOutcome, ResilienceReport, build_report
from repro.simkernel.streams import CHAOS_CAMPAIGN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fabric import XGFabric
    from repro.simkernel.events import Event

#: Health-check cadence after a fault is reverted.
RECOVERY_POLL_S = 30.0
#: How long after revert a fault may take to recover before the report
#: calls it unrecovered.
RECOVERY_TIMEOUT_S = 4 * 3600.0


class ChaosCampaign:
    """A set of scheduled faults to drive against one fabric run.

    Parameters
    ----------
    faults:
        The injections, in any order (each is independently scheduled).
    """

    def __init__(self, faults: Iterable[FaultInjection] = ()) -> None:
        self.faults = list(faults)
        self.outcomes: list[FaultOutcome] = []
        self._fabric: Optional["XGFabric"] = None

    def attach(self, fabric: "XGFabric") -> "ChaosCampaign":
        """Arm one runner process per fault on the fabric's engine.

        An empty campaign arms nothing -- the event stream is untouched.
        """
        if self._fabric is not None:
            raise RuntimeError("campaign is already attached")
        self._fabric = fabric
        for fault in self.faults:
            fabric.engine.process(
                self._drive(fabric, fault), name=f"chaos:{fault.name}"
            )
        return self

    def _drive(
        self, fabric: "XGFabric", fault: FaultInjection
    ) -> Generator["Event", Any, None]:
        engine = fabric.engine
        yield engine.timeout(fault.start_s)
        injected_at = engine.now
        fault.inject(fabric)
        dump = self._snapshot(fabric, fault)
        if fault.duration_s > 0:
            yield engine.timeout(fault.duration_s)
        fault.revert(fabric)
        reverted_at = engine.now
        outcome = FaultOutcome(
            name=fault.name,
            layer=fault.layer,
            injected_at_s=injected_at,
            reverted_at_s=reverted_at,
            detail=self._detail(fault),
            recorder_dump=dump,
        )
        self.outcomes.append(outcome)
        deadline = engine.now + RECOVERY_TIMEOUT_S
        while True:
            if fault.recovered(fabric):
                outcome.recovered_at_s = engine.now
                break
            if engine.now >= deadline:
                break
            yield engine.timeout(RECOVERY_POLL_S)
        self._observe(fabric, outcome)

    @staticmethod
    def _snapshot(
        fabric: "XGFabric", fault: FaultInjection
    ) -> Optional[dict[str, Any]]:
        """Freeze the fabric's flight recorder at injection time, if wired.

        The dump captures the span/metric context the fault landed in; it
        rides the :class:`FaultOutcome` into the resilience report.
        """
        recorder = getattr(fabric, "recorder", None)
        if recorder is None:
            return None
        return recorder.snapshot(trigger=f"chaos:{fault.name}").to_dict()

    @staticmethod
    def _detail(fault: FaultInjection) -> str:
        killed = getattr(fault, "killed_jobs", None)
        if killed:
            return f"killed: {', '.join(killed)}"
        preempted = getattr(fault, "preempted", None)
        if preempted:
            return f"preempted: {preempted}"
        submitted = getattr(fault, "submitted", None)
        if submitted:
            return f"submitted {len(submitted)} storm jobs"
        return ""

    @staticmethod
    def _observe(fabric: "XGFabric", outcome: FaultOutcome) -> None:
        """Record the fault's story through the observability seams."""
        tr = fabric.tracer
        if not tr.enabled:
            return
        tr.record(
            "chaos.fault",
            outcome.injected_at_s,
            outcome.reverted_at_s,
            category="chaos",
            attrs={"name": outcome.name, "layer": outcome.layer},
        )
        tr.metrics.counter(
            "chaos.faults", help="injected faults"
        ).inc(layer=outcome.layer, recovered=str(outcome.recovered).lower())
        if outcome.recovery_s is not None:
            tr.metrics.histogram(
                "chaos.recovery_s", help="fault recovery time (sim)"
            ).observe(outcome.recovery_s, layer=outcome.layer)

    def report(self, duration_s: float) -> ResilienceReport:
        """Build the resilience report for the finished run."""
        if self._fabric is None:
            raise RuntimeError("campaign was never attached to a fabric")
        outcomes = sorted(
            self.outcomes, key=lambda o: (o.injected_at_s, o.name)
        )
        return build_report(self._fabric, duration_s, outcomes)


def run_campaign(
    fabric: "XGFabric", campaign: ChaosCampaign, duration_s: float
) -> ResilienceReport:
    """Attach, run, and report in one call."""
    campaign.attach(fabric)
    fabric.run(duration_s)
    return campaign.report(duration_s)


def standard_campaign(duration_s: float) -> ChaosCampaign:
    """The reference cross-layer campaign: a mid-run CSPOT partition, a UE
    power loss, and an HPC node failure, spread over the run.

    This is the acceptance scenario: the pipeline must come out of it with
    zero lost and zero duplicate sensor records and a recovery time for
    every fault.
    """
    if duration_s < 6 * 3600.0:
        raise ValueError(
            "the standard campaign wants >= 6 h of simulated time so each "
            "fault has room to inject, heal, and be observed healthy"
        )
    return ChaosCampaign(
        [
            CspotPartitionInjector(
                start_s=duration_s * 0.25, duration_s=900.0,
                src="unl", dst="ucsb",
            ),
            UePowerLossInjector(
                start_s=duration_s * 0.50, duration_s=1200.0,
            ),
            HpcNodeFailureInjector(
                start_s=duration_s * 0.70, duration_s=3600.0, n_nodes=4,
            ),
        ]
    )


def randomized_campaign(
    fabric: "XGFabric",
    duration_s: float,
    n_faults: int = 6,
    kinds: Sequence[str] = ("partition", "ue-power", "hpc-nodes"),
) -> ChaosCampaign:
    """A seeded random campaign drawn from the fabric's ``"chaos"`` stream.

    Fault times land in the middle 70% of the run; kinds cycle through
    ``kinds``. Same seed, same fabric construction order -> the same
    campaign, fault for fault.
    """
    if n_faults < 1:
        raise ValueError(f"n_faults must be >= 1: {n_faults}")
    rng = fabric.engine.rng(CHAOS_CAMPAIGN)
    faults: list[FaultInjection] = []
    for i in range(n_faults):
        kind = kinds[i % len(kinds)]
        start = float(rng.uniform(0.1, 0.8) * duration_s)
        if kind == "partition":
            faults.append(
                CspotPartitionInjector(
                    start_s=start,
                    duration_s=float(rng.uniform(120.0, 1800.0)),
                    name=f"rand-partition-{i}",
                )
            )
        elif kind == "ue-power":
            faults.append(
                UePowerLossInjector(
                    start_s=start,
                    duration_s=float(rng.uniform(300.0, 1800.0)),
                    name=f"rand-ue-power-{i}",
                )
            )
        elif kind == "hpc-nodes":
            faults.append(
                HpcNodeFailureInjector(
                    start_s=start,
                    duration_s=float(rng.uniform(1800.0, 7200.0)),
                    n_nodes=int(rng.integers(1, 4)),
                    name=f"rand-hpc-{i}",
                )
            )
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
    return ChaosCampaign(faults)
