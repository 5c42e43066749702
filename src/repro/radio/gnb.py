"""The gNodeB (or eNodeB for the 4G cell): RAN operations.

Combines the carrier configuration, the SDR front end, the MAC scheduler and
the slicing configuration, and computes realized per-UE uplink throughput
samples. This is the piece of the pipeline that replaces srsRAN.

Per one-second sample, for each UE:

    grant      = scheduler share of the (slice's) PRB grid
    phy_rate   = grant x rate-per-PRB(CQI draw) x SDR derate x multi-UE eff.
    realized   = min(phy_rate x modem eff x host eff, hard caps)
    sample     = realized x lognormal fading (variance grows near the SDR
                 sampling ceiling)

The public sampling methods run array-at-a-time: the scheduler produces a
``(n_samples, n_ues)`` PRB-grant matrix, the per-UE state is packed into
contiguous arrays (:class:`repro.radio.state.UeStateArrays`), and one
``standard_normal`` tensor drives the CQI and fading draws for the whole
run; :class:`~repro.radio.population.CellPopulation` runs the same
arithmetic one scheduling round at a time.
The retired per-UE loops live on as reference implementations in
``tests/radio/scalar_reference.py``; the parity battery asserts the two
paths are bit-identical sample-for-sample at every N.

Invariants (property-tested): PRB grants never exceed the grid; slice
partitions conserve PRBs; samples are non-negative and respect hard caps
up to fading noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.radio.phy import CarrierConfig
from repro.radio.scheduler import MacScheduler, RoundRobinScheduler, UeDemand
from repro.radio.sdr import SdrFrontEnd, USRP_B210
from repro.radio.slicing import SliceConfig
from repro.radio.state import (
    UeStateArrays,
    rate_per_prb_table,
    sample_throughput_matrix,
)
from repro.radio.ue import UserEquipment

#: Fractional aggregate-capacity loss per additional concurrently scheduled
#: UE (control channel + grant overhead). Calibrated against the paper's
#: two-user aggregates landing slightly below the single-user figures.
MULTI_UE_OVERHEAD = 0.06


@dataclass
class GNodeB:
    """A base station serving one carrier.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"gnb-prod"``.
    carrier:
        The configured carrier (technology, bandwidth, duplexing).
    sdr:
        SDR front end; bandwidth support is validated at attach time.
    scheduler:
        MAC scheduling discipline (default round-robin, srsRAN-like).
    slice_config:
        Optional PRB partitioning. UEs bind to slices via their
        ``slice_name``; UEs without one share the ``"default"`` slice,
        which must then exist.
    """

    name: str
    carrier: CarrierConfig
    sdr: SdrFrontEnd = USRP_B210
    scheduler: MacScheduler = field(default_factory=RoundRobinScheduler)
    slice_config: Optional[SliceConfig] = None
    metrics: Optional[MetricsRegistry] = None
    _ues: dict[str, UserEquipment] = field(default_factory=dict)
    _slice_schedulers: dict[str, MacScheduler] = field(default_factory=dict)
    _rate_table: Optional[np.ndarray] = field(default=None, repr=False)

    def bind_metrics(self, registry: MetricsRegistry) -> "GNodeB":
        """Record per-round scheduler metrics for this cell (and its slices)."""
        self.metrics = registry
        self.scheduler.bind_metrics(registry, cell=self.name)
        for slice_name, sched in self._slice_schedulers.items():
            sched.bind_metrics(registry, cell=f"{self.name}/{slice_name}")
        return self

    def __post_init__(self) -> None:
        if not self.sdr.supports(self.carrier.bandwidth_mhz):
            raise ValueError(
                f"{self.sdr.name} cannot serve a {self.carrier.bandwidth_mhz} MHz carrier"
            )

    # -- attachment ----------------------------------------------------------

    def attach(self, ue: UserEquipment) -> None:
        """Attach a UE to this cell (radio-level admission)."""
        if not ue.supports(self.carrier.technology, self.carrier.duplex):
            raise ValueError(
                f"UE {ue.ue_id}: modem {ue.modem.name} does not support "
                f"{self.carrier.technology}/{self.carrier.duplex.value}"
            )
        if ue.ue_id in self._ues:
            raise ValueError(f"UE {ue.ue_id} already attached to {self.name}")
        if self.slice_config is not None:
            slice_name = ue.slice_name or "default"
            self.slice_config.get(slice_name)  # raises KeyError if absent
        self._ues[ue.ue_id] = ue

    def detach(self, ue_id: str) -> None:
        if ue_id not in self._ues:
            raise KeyError(f"UE {ue_id} not attached to {self.name}")
        del self._ues[ue_id]

    @property
    def attached_ues(self) -> list[UserEquipment]:
        return list(self._ues.values())

    # -- throughput sampling ---------------------------------------------------

    def _active(
        self, active_ue_ids: Optional[list[str]], n_samples: int
    ) -> list[UserEquipment]:
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive: {n_samples}")
        active = (
            [self._ues[u] for u in active_ue_ids]
            if active_ue_ids is not None
            else self.attached_ues
        )
        if not active:
            raise ValueError("no active UEs to sample")
        return active

    def _dl_over_ul(self) -> float:
        """Downlink/uplink slot ratio: FDD -> dedicated downlink carrier;
        TDD's downlink gets the slot fraction the uplink doesn't."""
        if self.carrier.uplink_fraction >= 1.0:
            return 1.0
        dl_fraction = self.carrier.tdd_pattern.downlink_fraction
        return dl_fraction / max(self.carrier.uplink_fraction, 1e-9)

    def rate_table(self) -> np.ndarray:
        """Cached CQI -> uplink bits/s-per-PRB table for this carrier."""
        if self._rate_table is None:
            self._rate_table = rate_per_prb_table(self.carrier)
        return self._rate_table

    def _samples(
        self,
        rng: np.random.Generator,
        n_samples: int,
        active: list[UserEquipment],
        downlink: bool,
    ) -> dict[str, np.ndarray]:
        """The vectorized hot path shared by both directions.

        One scheduler call produces the full ``(S, U)`` grant matrix, one
        ``standard_normal`` tensor reproduces the scalar loop's draw order,
        and one kernel call produces every sample. Returns
        ``{ue_id: array[n_samples]}``, each a row of one ``(U, S)`` matrix.
        """
        tech, duplex = self.carrier.technology, self.carrier.duplex
        n_active = len(active)
        derate = self.sdr.derate(self.carrier.bandwidth_mhz, active_ues=n_active)
        jitter = self.sdr.jitter_scale(self.carrier.bandwidth_mhz, active_ues=n_active)
        multi_ue_eff = max(0.4, 1.0 - MULTI_UE_OVERHEAD * (n_active - 1))
        grants = self._grants_matrix(active, n_samples)
        state = UeStateArrays.from_ues(active, tech, duplex)
        z = rng.standard_normal((n_samples, n_active, 2))
        samples = sample_throughput_matrix(
            state,
            grants,
            z,
            self.rate_table(),
            derate=derate,
            multi_ue_eff=multi_ue_eff,
            jitter_scale=jitter,
            rate_scale=self._dl_over_ul() if downlink else None,
            apply_caps=not downlink,
        )
        return {ue.ue_id: samples[j] for j, ue in enumerate(active)}

    def uplink_samples(
        self,
        rng: np.random.Generator,
        n_samples: int,
        active_ue_ids: Optional[list[str]] = None,
    ) -> dict[str, np.ndarray]:
        """Generate per-second uplink throughput samples (bits/s) per UE.

        ``active_ue_ids`` restricts which attached UEs saturate the uplink
        (default: all attached UEs). Returns ``{ue_id: array[n_samples]}``.
        Vectorized; bit-identical to the retired per-UE loop (parity-tested).
        """
        active = self._active(active_ue_ids, n_samples)
        return self._samples(rng, n_samples, active, downlink=False)

    def downlink_samples(
        self,
        rng: np.random.Generator,
        n_samples: int,
        active_ue_ids: Optional[list[str]] = None,
    ) -> dict[str, np.ndarray]:
        """Per-second downlink throughput samples (bits/s) per UE.

        The paper's evaluation is uplink-only (sensor traffic), but the
        return path -- CFD results and robot tasking back to the site --
        rides the downlink. Downlink is gNB-transmitted: the UE-side
        uplink caps (modem TX power, host USB) do not apply; reception
        efficiency reuses the device/modem factors. Vectorized;
        bit-identical to the retired per-UE loop (parity-tested).
        """
        active = self._active(active_ue_ids, n_samples)
        return self._samples(rng, n_samples, active, downlink=True)

    def _grants_matrix(
        self, active: list[UserEquipment], n_rounds: int
    ) -> np.ndarray:
        """All scheduling rounds at once: ``(n_rounds, len(active))`` PRBs.

        Mirrors one ``allocate`` call per round exactly -- same demands,
        same per-slice scheduler instances and state evolution -- but
        drives each scheduler's :meth:`~repro.radio.scheduler.MacScheduler.
        allocate_rounds` once instead of once per round. Slices are
        column-blocks; their schedulers hold independent state, so
        slice-major order here equals the scalar path's round-major order.
        """
        total_prbs = self.carrier.n_prbs
        if self.slice_config is None:
            demands = [
                UeDemand(ue.ue_id, prbs_wanted=total_prbs, cqi=int(ue.channel.mean_cqi))
                for ue in active
            ]
            return self.scheduler.allocate_rounds(demands, total_prbs, n_rounds)

        partition = self.slice_config.partition_prbs(total_prbs)
        grants = np.zeros((n_rounds, len(active)), dtype=np.int64)
        by_slice: dict[str, list[int]] = {}
        for j, ue in enumerate(active):
            by_slice.setdefault(ue.slice_name or "default", []).append(j)
        for slice_name, cols in by_slice.items():
            budget = partition[slice_name]
            sched = self._slice_schedulers.get(slice_name)
            if sched is None:
                sched = RoundRobinScheduler()
                if self.metrics is not None:
                    sched.bind_metrics(
                        self.metrics, cell=f"{self.name}/{slice_name}"
                    )
                self._slice_schedulers[slice_name] = sched
            demands = [
                UeDemand(
                    active[j].ue_id,
                    prbs_wanted=budget,
                    cqi=int(active[j].channel.mean_cqi),
                )
                for j in cols
            ]
            grants[:, cols] = sched.allocate_rounds(demands, budget, n_rounds)
        return grants
