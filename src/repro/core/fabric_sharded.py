"""The sharded fabric: many farms reporting into one hub, across workers.

:class:`ShardedFabricScenario` is the multi-farm reading of the paper's
pipeline, partitioned by cell across workers under the conservative
window-barrier protocol of :mod:`repro.parallel`. Every cell is a
:class:`~repro.core.fabric.FarmSite` -- the farm
:class:`~repro.core.fabric.XGFabric` runs, at the paper's operating points
(``FabricConfig(seed=seed)``), on its own ``shard.cell<ccc>.*`` sensor
streams. Cell ``hub_site`` also hosts the repository every farm reports
into.

* **Uplink.** Each telemetry round, a farm reads its stations and sends
  every :class:`~repro.core.telemetry.TelemetryRecord` through
  :meth:`~repro.cspot.transport.Transport.export_append`: the record
  crosses the shard boundary as a
  :class:`~repro.cspot.boundary.FabricEnvelope` and reaches the hub
  through the coordinator's :class:`~repro.parallel.envelope.FabricBus`
  -- the hub's own farm included, so the partition cannot matter. The
  farm waits out each envelope's stamped latency before its next read,
  as a reliable append does in ``XGFabric``, so its read cadence is the
  same.
* **Hub.** The hub stores each farm's records in that farm's telemetry
  logs and, every duty cycle, runs the hub's
  :class:`~repro.core.fabric.ChangeDetection` on each farm's exterior
  wind: one Laminar epoch per farm. CFD, pilots and the digital twin stay
  off in this form.
* **Chaos.** Window index = telemetry round.
  A :class:`~repro.parallel.plan.CellFault` derates one round's wind
  readings (a degraded sensor block). A
  :class:`~repro.parallel.plan.LinkFault` severs a farm's uplink for a
  range of rounds: records park in the farm's local CSPOT log (CSPOT's
  delay tolerance) and flush, in order, at the first healthy round, or
  stay parked if the fault outlasts the run.

The sync quantum is :data:`~repro.parallel.plan.CSPOT_TRANSFER_FLOOR_S`
(the paper's ~200 ms sensor->HPC transfer floor): no record crosses the
5G + backhaul path faster than one quantum, so delivering at the next
barrier is conservatively correct and the merged
:class:`~repro.parallel.report.FabricParallelReport` is byte-identical for
any worker count and either executor (the battery in
``tests/parallel/test_fabric_sharded_determinism.py`` pins it).

Every number a runner produces is a function of
``(master seed, cell index, round)``: RNG streams are named by cell,
results are keyed by cell, and the hub ingests envelopes in the bus's
total order. A spawned fabric worker imports this module (and with it the
fabric stack) to unpickle its task; ``repro.parallel`` itself stays free
of it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.chaos.shardfaults import ShardChaosCampaign
from repro.core.config import DUTY_CYCLE_S, FabricConfig
from repro.core.e2e import fig3_slos
from repro.core.fabric import (
    ChangeDetection,
    FabricMetrics,
    FabricProcess,
    FarmSite,
    Uplink,
)
from repro.core.telemetry import TELEMETRY_ELEMENT_SIZE, TelemetryRecord
from repro.cspot.boundary import CrossShardLink, FabricEnvelope, ShardBoundary
from repro.cspot.node import CSPOTNode
from repro.cspot.paths import unl_ucsb_5g
from repro.cspot.transport import Transport
from repro.obs.slo import budget_record
from repro.obs.stream import QuantileSketch
from repro.parallel.coordinator import ShardedScenario
from repro.parallel.envelope import FabricBus
from repro.parallel.merge import merge_sketches, merge_streams
from repro.parallel.plan import CSPOT_TRANSFER_FLOOR_S, LinkFault
from repro.parallel.report import FabricParallelReport
from repro.parallel.shard import ShardRunner, ShardTask
from repro.sensors.station import WeatherStation
from repro.simkernel.events import Event

#: A farm's local log where records of severed rounds wait to be flushed.
PARKED_LOG = "telemetry.parked"

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
    """A fabric shard: the owned farms of an ``n_cells``-farm fabric."""

    n_cells: int
    hub_cell: int = 0
    link_faults: tuple[LinkFault, ...] = ()
    link: CrossShardLink = field(default_factory=farm_uplink)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.hub_cell < self.n_cells:
            raise ValueError(
                f"hub cell {self.hub_cell} out of [0, {self.n_cells})"
            )
        self._require_owned(
            "link fault", (f.cell_index for f in self.link_faults)
        )

    def _n_cells(self) -> int:
        return self.n_cells

    def build_runner(self) -> FabricShardRunner:
        return FabricShardRunner(self)


@dataclass
class SiteShardResult:
    """One site's complete contribution, shipped back at FINISH."""

    cell_index: int
    #: Station readings the farm took.
    samples: int = 0
    #: Envelopes exported toward the hub (includes flushed parked ones).
    sent: int = 0
    #: Records ever parked behind a severed link.
    parked_total: int = 0
    #: Records still parked when the run ended (fault outlasted it).
    parked_remaining: int = 0
    #: Hub side: envelopes ingested (nonzero only on the hub's result).
    delivered: int = 0
    #: Hub side: duty-cycle decisions, and the change alerts among them.
    decisions: int = 0
    alerts: int = 0
    #: Send-side transfer latency sketch (the stamped draws).
    transfer_sketch: QuantileSketch = field(
        default_factory=lambda: QuantileSketch.identity(0.01)
    )
    #: Hub side: effective delivery latency (incl. barrier quantization).
    ingest_sketch: QuantileSketch = field(
        default_factory=lambda: QuantileSketch.identity(0.01)
    )
    #: Sim-time-ordered trace records keyed ``(t, shard, seq)``.
    records: list[dict[str, Any]] = field(default_factory=list)
    #: Sim-time-ordered SLO timeline records keyed ``(t, shard, seq)``.
    slo: list[dict[str, Any]] = field(default_factory=list)


class FabricShardRunner(ShardRunner[SiteShardResult]):
    """Runs one shard's farms, and the hub when the shard owns it."""

    task: FabricShardTask

    def __init__(self, task: FabricShardTask) -> None:
        super().__init__(task)
        self.config = FabricConfig(seed=task.seed)
        self.transport = Transport(self.engine)
        self.boundary = ShardBoundary(task.link)
        self.transport.bind_boundary(self.boundary)
        self._seqs: dict[int, int] = {c: 0 for c in task.cells}
        self._slo_seq = 0  # only the hub evaluates the transfer SLO
        #: Seqno of the last parked record each farm has flushed.
        self._flushed: dict[int, int] = {c: 0 for c in task.cells}
        self._link_faults: dict[int, list[LinkFault]] = {
            c: [] for c in task.cells
        }
        for link_fault in task.link_faults:
            self._link_faults[link_fault.cell_index].append(link_fault)
        self._farms: dict[int, FarmSite] = {}
        for c in task.cells:
            farm = FarmSite(self.engine, FabricMetrics(), cell=c)
            farm.unl.create_log(
                PARKED_LOG,
                element_size=TELEMETRY_ELEMENT_SIZE,
                history_size=4096,
            )
            self._farms[c] = farm
            self._results[c] = SiteShardResult(
                cell_index=c,
                transfer_sketch=QuantileSketch.identity(task.relative_error),
                ingest_sketch=QuantileSketch.identity(task.relative_error),
            )
            self.engine.process(self._farm_loop(c), name=f"farm{c:03d}")
        #: The repository node, on the shard that owns the hub cell.
        self._hub: Optional[CSPOTNode] = None
        if task.hub_cell in task.cells:
            self._hub = self._start_hub()

    # -- accounting -------------------------------------------------------------

    def _record(self, cell: int, kind: str, **fields: Any) -> None:
        seq = self._seqs[cell]
        self._seqs[cell] = seq + 1
        self._results[cell].records.append(
            {"t": self.engine.now, "shard": cell, "seq": seq, "kind": kind, **fields}
        )

    # -- the farms --------------------------------------------------------------

    def _severed(self, cell: int, round_: int) -> bool:
        return any(f.severs(round_) for f in self._link_faults[cell])

    def _farm_loop(self, cell: int) -> FabricProcess:
        """The farm's telemetry cadence: one round per interval."""
        farm = self._farms[cell]
        interval = self.config.telemetry_interval_s
        round_ = 0
        while self.engine.now + interval <= self.task.horizon_s:
            yield self.engine.timeout(interval)
            severed = self._severed(cell, round_)
            if not severed:
                yield from self._flush(cell, round_)
            # None = no fault on this (cell, round); avoids a float sentinel.
            derate = self._derates.get((cell, round_))
            readings = yield from farm.telemetry_round(
                self._uplink(cell, round_, severed), derate=derate
            )
            self._results[cell].samples += len(readings)
            self._record(
                cell, "farm.round", round=round_, readings=len(readings),
                derate=1.0 if derate is None else derate,
            )
            round_ += 1

    def _uplink(self, cell: int, round_: int, severed: bool) -> Uplink:
        def send(station: WeatherStation, payload: bytes) -> Event:
            if not severed:
                return self._export(cell, round_, station.station_id, payload)
            # Severed: the record parks in the farm's own log, durably.
            seqno = self._farms[cell].unl.local_append(PARKED_LOG, payload)
            self._results[cell].parked_total += 1
            self._record(
                cell, "farm.parked", round=round_,
                station=station.station_id, parked=seqno - self._flushed[cell],
            )
            return self.engine.timeout(0.0)

        return send

    def _flush(self, cell: int, round_: int) -> FabricProcess:
        """Send every parked record, oldest first, before the round's reads."""
        log = self._farms[cell].unl.get_log(PARKED_LOG)
        for entry in list(log.scan(self._flushed[cell])):
            self._flushed[cell] = entry.seqno
            station_id = TelemetryRecord.from_bytes(entry.payload).station_id
            yield self._export(cell, round_, station_id, entry.payload)

    def _export(
        self, cell: int, round_: int, station_id: str, payload: bytes
    ) -> Event:
        """Send one record to the hub; the farm waits out its latency."""
        envelope = self.transport.export_append(
            cell, self.task.hub_cell, f"telemetry.{station_id}", payload
        )
        result = self._results[cell]
        result.sent += 1
        result.transfer_sketch.add(envelope.latency_s)
        self._record(
            cell, "cspot.export", round=round_, station=station_id,
            envelope_seq=envelope.seq, dst=self.task.hub_cell,
            latency_s=envelope.latency_s,
        )
        return self.engine.timeout(envelope.latency_s)

    # -- the hub ----------------------------------------------------------------

    def _start_hub(self) -> CSPOTNode:
        """The repository node with every farm's logs, deciding each cycle."""
        task = self.task
        hub = CSPOTNode(self.engine, "ucsb")
        for src in range(task.n_cells):
            for station in self._farms[task.hub_cell].stations:
                hub.create_log(
                    hub_log(src, f"telemetry.{station.station_id}"),
                    element_size=TELEMETRY_ELEMENT_SIZE,
                    history_size=4096,
                )
        detection = ChangeDetection(
            self.engine, hosts={"ucsb": hub}, transport=self.transport
        )
        self.engine.process(
            self._duty_cycle_loop(hub, detection), name="hub-duty-cycle"
        )
        return hub

    def _duty_cycle_loop(
        self, hub: CSPOTNode, detection: ChangeDetection
    ) -> FabricProcess:
        """Every duty cycle, one Laminar decision per farm, in cell order."""
        task = self.task
        result = self._results[task.hub_cell]
        exterior = self._farms[task.hub_cell].exterior_station.station_id
        while self.engine.now + DUTY_CYCLE_S <= task.horizon_s:
            yield self.engine.timeout(DUTY_CYCLE_S)
            for src in range(task.n_cells):
                decision = yield from detection.decide(
                    hub.get_log(hub_log(src, f"telemetry.{exterior}"))
                )
                if decision is None:
                    continue
                result.decisions += 1
                result.alerts += decision.alert
                self._record(
                    task.hub_cell, "hub.decision", src=src, **asdict(decision)
                )

    def deliver(self, envelopes: Sequence[FabricEnvelope]) -> None:
        """Schedule inbound envelopes for ingestion at their delivery times.

        The coordinator hands envelopes at a barrier, already sorted by
        ``(deliver_t, src_cell, seq)`` with ``deliver_t`` at or after the
        *next* barrier -- so scheduling order (and therefore same-instant
        FIFO order) is worker-count-invariant.
        """
        for envelope in envelopes:
            if self._hub is None or envelope.dst_cell != self.task.hub_cell:
                raise ValueError(
                    f"envelope for cell {envelope.dst_cell} delivered to a "
                    f"shard owning {sorted(self._results)} (hub cell "
                    f"{self.task.hub_cell})"
                )
            deliver_t = envelope.delivery_key[0]
            self.engine.schedule_at(deliver_t).add_callback(
                self._make_ingest(self._hub, envelope)
            )

    def _make_ingest(
        self, hub: CSPOTNode, envelope: FabricEnvelope
    ) -> Callable[[Event], None]:
        hub_cell = self.task.hub_cell
        result = self._results[hub_cell]

        def _ingest(_event: Event) -> None:
            now = self.engine.now
            latency = now - envelope.send_t
            src = envelope.src_cell
            hub.local_append(hub_log(src, envelope.log), envelope.payload)
            record = TelemetryRecord.from_bytes(envelope.payload)
            result.delivered += 1
            result.ingest_sketch.add(latency)
            self._record(
                hub_cell, "hub.ingest", src=src, station=record.station_id,
                read_t=record.time_s, wind_mps=record.wind_speed_mps,
                temperature_k=record.temperature_k,
                humidity=record.relative_humidity, latency_s=latency,
            )
            result.slo.append(budget_record(
                t=now,
                shard=hub_cell,
                seq=self._slo_seq,
                slo="cspot.transfer",
                value_s=latency,
                budget_s=TRANSFER_BUDGET_S,
                src=src,
            ))
            self._slo_seq += 1

        return _ingest

    # -- the barrier protocol ---------------------------------------------------

    def collect_outbound(self) -> tuple[FabricEnvelope, ...]:
        """Envelopes exported during the window just drained."""
        return self.boundary.drain()

    def finish(self) -> list[SiteShardResult]:
        """Per-site results in cell-index order (ascending, stable)."""
        for c, farm in self._farms.items():
            parked = farm.unl.get_log(PARKED_LOG).last_seqno
            self._results[c].parked_remaining = parked - self._flushed[c]
        return super().finish()


@dataclass(kw_only=True)
class ShardedFabricScenario(ShardedScenario):
    """Many farms reporting into one hub, sharded across workers.

    The shared parameters (seed, workers, executor, ...) are documented
    on :class:`~repro.parallel.coordinator.ShardedScenario`. Every farm
    runs at the paper's operating points (``FabricConfig(seed=seed)``):
    the window is the telemetry interval and the barrier quantum is the
    CSPOT transfer floor, so neither is settable here.

    Parameters
    ----------
    n_sites:
        Number of farm sites (cells); site ``hub_site`` also hosts the
        repository every farm reports into.
    horizon_s:
        Simulated horizon (default 2 h). A farm's first decision needs
        two full windows of readings, so it comes at the 1.5 h duty
        cycle.
    campaign:
        Optional :class:`~repro.chaos.shardfaults.ShardChaosCampaign`;
        faults are routed to the workers owning the faulted cells.
    link:
        Latency model of the farm -> hub path (default: the calibrated
        UNL->UCSB 5G + Internet path, :func:`farm_uplink`).
    """

    n_sites: int = 8
    hub_site: int = 0
    horizon_s: float = 7200.0
    window_s: float = field(
        default=FabricConfig.telemetry_interval_s, init=False
    )
    interaction_delay_s: Optional[float] = field(
        default=CSPOT_TRANSFER_FLOOR_S, init=False
    )
    campaign: Optional[ShardChaosCampaign] = None
    link: CrossShardLink = field(default_factory=farm_uplink)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.hub_site < self.n_sites:
            raise ValueError(
                f"hub site {self.hub_site} out of [0, {self.n_sites})"
            )

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
                hub_cell=self.hub_site,
                faults=faults[w],
                link_faults=link_faults[w],
                link=self.link,
                relative_error=self.relative_error,
            )
            for w, cells in enumerate(self.plan.assignments)
        ]

    # -- the run -----------------------------------------------------------------

    def run(self) -> FabricParallelReport:
        """Execute every shard, exchange envelopes, merge canonically."""
        bus = FabricBus(self.plan, self.horizon_s)
        results: list[SiteShardResult] = self._execute(self._tasks(), bus)
        delivered = sum(r.delivered for r in results)
        if delivered != bus.delivered:
            raise RuntimeError(
                f"transfer ledger mismatch: bus routed {bus.delivered} "
                f"envelopes but shards ingested {delivered}"
            )
        return FabricParallelReport(
            n_sites=self.n_sites,
            hub_site=self.hub_site,
            sim_seconds=self.horizon_s,
            n_windows=self.n_windows,
            samples=sum(r.samples for r in results),
            transfers_sent=sum(r.sent for r in results),
            transfers_delivered=delivered,
            transfers_in_flight=len(bus.in_flight),
            in_flight_bytes=bus.in_flight_bytes,
            parked_total=sum(r.parked_total for r in results),
            parked_remaining=sum(r.parked_remaining for r in results),
            decisions=sum(r.decisions for r in results),
            alerts=sum(r.alerts for r in results),
            per_site_samples=tuple(r.samples for r in results),
            per_site_sent=tuple(r.sent for r in results),
            per_site_parked=tuple(r.parked_total for r in results),
            transfer_sketch=merge_sketches(
                (r.transfer_sketch for r in results), self.relative_error
            ).to_dict(),
            ingest_sketch=merge_sketches(
                (r.ingest_sketch for r in results), self.relative_error
            ).to_dict(),
            slo=tuple(merge_streams([r.slo for r in results])),
            trace=tuple(merge_streams([r.records for r in results])),
        )
