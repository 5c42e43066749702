"""The sharded fabric: many farms reporting into one hub, across workers.

:class:`ShardedFabricScenario` is the multi-farm reading of the paper's
pipeline, partitioned by cell across workers by :mod:`repro.parallel`.
Every cell is a :class:`~repro.core.fabric.FarmSite` -- the farm
:class:`~repro.core.fabric.XGFabric` runs, at the paper's operating points
(``FabricConfig(seed=seed)``), on its own ``shard.cell<ccc>.*`` sensor
streams. The repository every farm reports into is no cell: it is the
:class:`FabricHubRunner`, which runs in the coordinator.

* **Uplink.** A farm runs ``XGFabric``'s telemetry clock and uplink
  (round ``r`` reads at exactly (r + 1) x 300 s into the ``unl``
  outbox). Its send leaves the farm's shard as a
  :class:`~repro.cspot.boundary.FabricEnvelope`
  (:func:`~repro.cspot.boundary.stamp_envelope`) whose ``seq`` is the
  farm's count of records sent and whose transfer latency the uplink
  waits out before the next record.
* **Hub.** The coordinator hands each window's envelopes to the hub,
  which advances through window k only after every farm shard has
  finished window k. Records flow one way, so the farms never wait for
  the hub, and the hub holds every record that can arrive in the window
  it runs: it stores each in its farm's telemetry log at exactly
  ``send_t + latency_s``. Every duty cycle it runs the
  :class:`~repro.core.fabric.ChangeDetection` loop the
  :class:`~repro.core.fabric.Hub` runs, over every farm's exterior wind:
  one Laminar epoch per farm. CFD, pilots and the digital twin stay off
  in this form.
* **Chaos.** Window index = telemetry round.
  A :class:`~repro.parallel.plan.CellFault` derates one round's wind
  readings (a degraded sensor block). A
  :class:`~repro.parallel.plan.LinkFault` severs a farm's uplink for a
  range of rounds: the export waits them out, so records stay parked in
  the outbox (CSPOT's delay tolerance) and go out in order from the
  first healthy round, or stay parked if the fault outlasts the run. A
  fault strikes round ``r`` exactly when (r + 1) x 300 s < ``horizon_s``;
  one on a later round is rejected at construction.

Barriers fall once per telemetry round, and where they fall changes no
byte: the merged :class:`~repro.parallel.report.FabricParallelReport` is
byte-identical for any worker count, either executor and any barrier
placement (the battery in
``tests/parallel/test_fabric_sharded_determinism.py`` pins it).

Every number a farm produces is a function of
``(master seed, cell index, round)``: RNG streams are named by cell and
results are keyed by cell; the hub ingests every record at a time set by
its sender alone, simultaneous arrivals in ``(src_cell, seq)`` order. A
spawned fabric worker imports this module (and with it the fabric stack)
to unpickle its task; ``repro.parallel`` itself stays free of it.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from heapq import heappop, heappush
from typing import Any, Optional, Sequence

from repro.chaos.shardfaults import ShardChaosCampaign
from repro.core.config import FabricConfig
from repro.core.e2e import fig3_slos
from repro.core.fabric import (
    ChangeDetection,
    Decision,
    FabricMetrics,
    FabricProcess,
    FarmSite,
)
from repro.core.telemetry import TELEMETRY_ELEMENT_SIZE, TelemetryRecord
from repro.cspot.boundary import CrossShardLink, FabricEnvelope, stamp_envelope
from repro.cspot.log import LogEntry
from repro.cspot.node import CSPOTNode
from repro.cspot.paths import unl_ucsb_5g
from repro.cspot.transport import Transport
from repro.obs.slo import budget_record
from repro.obs.stream import QuantileSketch
from repro.parallel.coordinator import ShardedScenario
from repro.parallel.merge import merge_sketches, merge_streams
from repro.parallel.plan import CellFault, LinkFault
from repro.parallel.report import FabricParallelReport
from repro.parallel.shard import ShardRunner, ShardTask
from repro.sensors.station import StationReading, WeatherStation, station_grid
from repro.simkernel import Engine

#: Every farm's telemetry interval: the paper's 300 s, and the window.
INTERVAL_S = FabricConfig.telemetry_interval_s

#: Transfer budget of the per-delivery SLO timeline: the objective of the
#: sensor -> edge append SLO that monitors the same leg in ``XGFabric``.
TRANSFER_BUDGET_S = next(
    slo.objective_s for slo in fig3_slos() if slo.name == "sensor-edge-append"
)


def farm_uplink() -> CrossShardLink:
    """The farm -> hub link: the calibrated UNL->UCSB 5G + Internet path."""
    return CrossShardLink.from_path(unl_ucsb_5g())


def hub_log(src_cell: int, log_name: str) -> str:
    """The hub's copy of farm ``src_cell``'s log ``log_name``."""
    return f"site{src_cell:03d}.{log_name}"


@dataclass(frozen=True, kw_only=True)
class FabricShardTask(ShardTask):
    """A fabric shard: the owned farms of an ``n_cells``-farm fabric.

    Every fault must strike a round its farm reads: (r + 1) x 300 s < horizon.
    """

    n_cells: int
    link_faults: tuple[LinkFault, ...] = ()
    link: CrossShardLink = field(default_factory=farm_uplink)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_owned(
            "link fault", (f.cell_index for f in self.link_faults)
        )
        struck: list[tuple[CellFault | LinkFault, int]] = [(f, f.window) for f in self.faults]
        struck += [(f, f.start_window) for f in self.link_faults]
        for fault, round_ in struck:
            if (round_ + 1) * INTERVAL_S >= self.horizon_s:
                raise ValueError(
                    f"{fault} strikes round {round_}, which farm "
                    f"{fault.cell_index} never reaches in {self.horizon_s} s"
                )

    def _n_cells(self) -> int:
        return self.n_cells

    def build_runner(self) -> FabricShardRunner:
        return FabricShardRunner(self)


@dataclass
class SiteShardResult:
    """One farm's complete contribution, shipped back at FINISH."""

    cell_index: int
    #: Station readings the farm took.
    samples: int = 0
    #: Envelopes exported toward the hub.
    sent: int = 0
    #: Records read while the link was severed (they waited in the outbox).
    parked_total: int = 0
    #: Records still in the outbox, unsent, when the run ended.
    parked_remaining: int = 0
    #: Transfer latency sketch (the stamped draws).
    transfer_sketch: QuantileSketch = field(
        default_factory=lambda: QuantileSketch.identity(0.01)
    )
    #: Sim-time-ordered trace records keyed ``(t, shard, seq)``.
    records: list[dict[str, Any]] = field(default_factory=list)


class FabricShardRunner(ShardRunner[SiteShardResult]):
    """Runs one shard's farms; every record goes to the hub."""

    task: FabricShardTask

    def __init__(self, task: FabricShardTask) -> None:
        super().__init__(task)
        self._outbound: list[FabricEnvelope] = []
        self._farms: dict[int, FarmSite] = {}
        for c in task.cells:
            farm = self._farms[c] = FarmSite(self.engine, FabricMetrics(), cell=c)
            self._results[c] = SiteShardResult(
                cell_index=c,
                transfer_sketch=QuantileSketch.identity(task.relative_error),
            )
            derates = {w: d for (cell, w), d in self._derates.items() if cell == c}
            rounds = farm.telemetry_rounds(
                INTERVAL_S, task.horizon_s, functools.partial(self._read, c), derates
            )
            self.engine.process(rounds, name=f"farm{c:03d}")
            uplink = farm.uplink(functools.partial(self._send, c))
            self.engine.process(uplink, name=f"farm{c:03d}.uplink")

    # -- accounting -------------------------------------------------------------

    def _record(self, cell: int, kind: str, **fields: Any) -> None:
        records = self._results[cell].records
        records.append({
            "t": self.engine.now, "shard": cell, "seq": len(records),
            "kind": kind, **fields,
        })

    # -- the farms --------------------------------------------------------------

    def _severed(self, cell: int, round_: int) -> bool:
        return any(
            f.cell_index == cell and f.severs(round_) for f in self.task.link_faults
        )

    def _read(self, cell: int, round_: int, readings: list[StationReading]) -> None:
        """Account one telemetry round of farm ``cell``."""
        result = self._results[cell]
        result.samples += len(readings)
        if self._severed(cell, round_):
            result.parked_total += len(readings)
        self._record(
            cell, "farm.round", round=round_, readings=len(readings),
            derate=self._derates.get((cell, round_), 1.0),
        )

    def _send(self, cell: int, station: WeatherStation, entry: LogEntry) -> FabricProcess:
        """The farm's uplink send: export one record to the hub.

        A severed link holds the record until the first healthy round
        starts; the farm then waits out the transfer latency.
        """
        engine = self.engine
        round_ = int(engine.now // INTERVAL_S) - 1
        if self._severed(cell, round_):
            while self._severed(cell, round_):
                round_ += 1
            yield engine.timeout((round_ + 1) * INTERVAL_S - engine.now)
        result = self._results[cell]
        envelope = stamp_envelope(
            engine, self.task.link, src_cell=cell, seq=result.sent,
            log=f"telemetry.{station.station_id}", payload=entry.payload,
        )
        self._outbound.append(envelope)
        result.sent += 1
        result.transfer_sketch.add(envelope.latency_s)
        self._record(
            cell, "cspot.export", station=station.station_id,
            read_t=entry.appended_at, envelope_seq=envelope.seq,
            latency_s=envelope.latency_s,
        )
        yield engine.timeout(envelope.latency_s)

    # -- the barrier protocol ---------------------------------------------------

    def collect_outbound(self) -> tuple[FabricEnvelope, ...]:
        """Envelopes exported during the window just drained."""
        out = tuple(self._outbound)
        self._outbound.clear()
        return out

    def finish(self) -> list[SiteShardResult]:
        """Per-site results in cell-index order (ascending, stable)."""
        # The uplink sends in seqno order: the unsent are those after ``sent``.
        for c, farm in self._farms.items():
            result = self._results[c]
            result.parked_remaining = sum(1 for _ in farm.outbox.scan(result.sent))
        return super().finish()


class FabricHubRunner:
    """The repository every farm reports into, run in the coordinator.

    The sharded fabric's :class:`~repro.parallel.coordinator.HubRunner`:
    a ``ucsb`` node with every farm's telemetry logs, and the
    :class:`~repro.core.fabric.ChangeDetection` duty-cycle loop the
    :class:`~repro.core.fabric.Hub` runs, here over every farm. It runs
    a window behind the farms, so it ingests each record at exactly
    ``send_t + latency_s``, after its own events at that instant;
    simultaneous arrivals ingest in ``(src_cell, seq)`` order. It owns
    the transfer stream's invariants: every key is unique over the run,
    nothing arrives in the hub's past or ingests at another time, and a
    record that arrives after the horizon stays in flight. Its records
    carry shard id ``n_sites``, after every farm's.
    """

    def __init__(self, n_sites: int, seed: int, horizon_s: float) -> None:
        self.engine = Engine(seed=seed)
        self.horizon_s = horizon_s
        self.shard = n_sites
        self.repository = CSPOTNode(self.engine, "ucsb")
        stations = station_grid()
        for src in range(n_sites):
            for station in stations:
                self.repository.create_log(
                    hub_log(src, f"telemetry.{station.station_id}"),
                    element_size=TELEMETRY_ELEMENT_SIZE,
                    history_size=4096,
                )
        detection = ChangeDetection(
            self.engine,
            hosts={"ucsb": self.repository},
            transport=Transport(self.engine),
        )
        exterior = next(s for s in stations if not s.interior).station_id
        self.engine.process(
            detection.duty_cycle_loop(
                self.repository,
                [hub_log(src, f"telemetry.{exterior}") for src in range(n_sites)],
                horizon_s,
                FabricMetrics(),
                self._decided,
            ),
            name="hub-duty-cycle",
        )
        self.delivered = 0
        self.decisions = 0
        self.alerts = 0
        #: Envelopes that arrive after the horizon, in key order.
        self.in_flight: list[FabricEnvelope] = []
        #: Sim-time-ordered trace and SLO records keyed ``(t, shard, seq)``.
        self.records: list[dict[str, Any]] = []
        self.slo: list[dict[str, Any]] = []
        self._seen: set[tuple[float, int, int]] = set()
        #: Envelopes due by the horizon: ``(arrival, src_cell, seq, envelope)``.
        self._due: list[tuple[float, int, int, FabricEnvelope]] = []

    def advance(
        self, barrier_t: float, envelopes: Sequence[FabricEnvelope]
    ) -> None:
        """Take the envelopes the farms sent by ``barrier_t``, then run to it."""
        for envelope in sorted(envelopes, key=lambda e: e.key):
            key = envelope.key
            if key in self._seen:
                raise ValueError(
                    f"duplicate envelope key (send_t, src_cell, seq)={key}: "
                    "the cross-shard stream must be a total order"
                )
            self._seen.add(key)
            arrival = envelope.arrival_t
            if arrival <= self.engine.now:
                raise RuntimeError(
                    f"envelope {key} arrives at t={arrival}, not after the "
                    f"hub's clock t={self.engine.now}: the hub must run a "
                    "window behind every farm"
                )
            if arrival > self.horizon_s:
                self.in_flight.append(envelope)
            else:
                heappush(
                    self._due, (arrival, envelope.src_cell, envelope.seq, envelope)
                )
        due = self._due
        while due and due[0][0] <= barrier_t:
            arrival, _, _, envelope = heappop(due)
            self.engine.drain_window(arrival)
            self.ingest(envelope)
        self.engine.drain_window(barrier_t)

    def ingest(self, envelope: FabricEnvelope) -> None:
        """Store one record in its farm's log, at its exact arrival time."""
        now = self.engine.now
        if now != envelope.arrival_t:
            raise RuntimeError(
                f"envelope {envelope.key} ingested at t={now}, not at "
                f"send_t + latency_s = {envelope.arrival_t}"
            )
        src = envelope.src_cell
        self.repository.local_append(hub_log(src, envelope.log), envelope.payload)
        record = TelemetryRecord.from_bytes(envelope.payload)
        self.delivered += 1
        self._record(
            "hub.ingest", src=src, station=record.station_id,
            read_t=record.time_s, wind_mps=record.wind_speed_mps,
            temperature_k=record.temperature_k,
            humidity=record.relative_humidity, latency_s=envelope.latency_s,
        )
        self.slo.append(budget_record(
            t=now,
            shard=self.shard,
            seq=len(self.slo),
            slo="cspot.transfer",
            value_s=envelope.latency_s,
            budget_s=TRANSFER_BUDGET_S,
            src=src,
        ))

    def _decided(self, src: int, decision: Decision) -> None:
        self.decisions += 1
        self.alerts += decision.alert
        self._record("hub.decision", src=src, **asdict(decision))

    def _record(self, kind: str, **fields: Any) -> None:
        self.records.append({
            "t": self.engine.now, "shard": self.shard,
            "seq": len(self.records), "kind": kind, **fields,
        })


@dataclass(kw_only=True)
class ShardedFabricScenario(ShardedScenario):
    """Many farms reporting into one hub, sharded across workers.

    The shared parameters (seed, workers, executor, ...) are documented
    on :class:`~repro.parallel.coordinator.ShardedScenario`. Every farm
    runs at the paper's operating points (``FabricConfig(seed=seed)``):
    the window, and with it the barrier calendar, is the telemetry
    interval, so it is not settable here.

    Parameters
    ----------
    n_sites:
        Number of farm sites (cells); they all report into one hub.
    horizon_s:
        Simulated horizon (default 2 h). A farm's first decision needs
        two full windows of readings, so it comes at the 1.5 h duty
        cycle.
    campaign:
        Optional :class:`~repro.chaos.shardfaults.ShardChaosCampaign`;
        faults are routed to the workers owning the faulted cells, and
        each must strike a round its farm reaches.
    link:
        Latency model of the farm -> hub path (default: the calibrated
        UNL->UCSB 5G + Internet path, :func:`farm_uplink`).
    """

    n_sites: int = 8
    horizon_s: float = 7200.0
    window_s: float = field(default=INTERVAL_S, init=False)
    campaign: Optional[ShardChaosCampaign] = None
    link: CrossShardLink = field(default_factory=farm_uplink)

    def __post_init__(self) -> None:
        super().__post_init__()
        # The tasks check the faults: build them now, so a campaign that
        # would strike a round no farm reaches fails here.
        self._tasks()

    def _n_cells(self) -> int:
        return self.n_sites

    def _tasks(self) -> list[FabricShardTask]:
        campaign = self.campaign or ShardChaosCampaign()
        faults, link_faults = campaign.routed(self.plan)
        return [
            FabricShardTask(
                n_cells=self.n_sites,
                seed=self.seed,
                horizon_s=self.horizon_s,
                cells=cells,
                faults=faults[w],
                link_faults=link_faults[w],
                link=self.link,
                relative_error=self.relative_error,
            )
            for w, cells in enumerate(self.plan.assignments)
        ]

    # -- the run -----------------------------------------------------------------

    def run(self) -> FabricParallelReport:
        """Execute the farm shards and the hub, merge canonically."""
        hub = FabricHubRunner(self.n_sites, self.seed, self.horizon_s)
        results: list[SiteShardResult] = self._execute(self._tasks(), hub)
        for r in results:
            if r.samples != r.sent + r.parked_remaining:
                raise RuntimeError(
                    f"farm {r.cell_index} read {r.samples} records but sent "
                    f"{r.sent} with {r.parked_remaining} left in its outbox"
                )
        sent = sum(r.sent for r in results)
        if sent != hub.delivered + len(hub.in_flight):
            raise RuntimeError(
                f"transfer ledger mismatch: farms sent {sent} envelopes, the "
                f"hub ingested {hub.delivered} with {len(hub.in_flight)} "
                "in flight"
            )
        return FabricParallelReport(
            n_sites=self.n_sites,
            sim_seconds=self.horizon_s,
            n_windows=self.n_windows,
            samples=sum(r.samples for r in results),
            transfers_sent=sent,
            transfers_delivered=hub.delivered,
            transfers_in_flight=len(hub.in_flight),
            in_flight_bytes=sum(len(e.payload) for e in hub.in_flight),
            parked_total=sum(r.parked_total for r in results),
            parked_remaining=sum(r.parked_remaining for r in results),
            decisions=hub.decisions,
            alerts=hub.alerts,
            per_site_samples=tuple(r.samples for r in results),
            per_site_sent=tuple(r.sent for r in results),
            per_site_parked=tuple(r.parked_total for r in results),
            transfer_sketch=merge_sketches(
                (r.transfer_sketch for r in results), self.relative_error
            ).to_dict(),
            slo=tuple(hub.slo),
            trace=tuple(merge_streams([r.records for r in results] + [hub.records])),
        )
