"""The sharded fabric: many farms reporting into one hub, across workers.

:class:`ShardedFabricScenario` is the multi-farm reading of the paper's
pipeline, partitioned by cell across workers by :mod:`repro.parallel`.
Every cell is a :class:`~repro.core.fabric.FarmSite` -- the farm
:class:`~repro.core.fabric.XGFabric` runs, at the paper's operating points
(``FabricConfig(seed=seed)``), on its own ``shard.cell<ccc>.*`` sensor
streams. The repository every farm reports into is no cell: it is the
:class:`FabricHubRunner`, which runs in the coordinator.

* **Uplink.** Each telemetry round, a farm reads its stations and sends
  every :class:`~repro.core.telemetry.TelemetryRecord` through
  :meth:`~repro.cspot.transport.Transport.export_append`: the record
  leaves the farm's shard as a
  :class:`~repro.cspot.boundary.FabricEnvelope` stamped with its
  transfer latency. The farm waits out that latency before its next
  read, as a reliable append does in ``XGFabric``, so its read cadence
  is the same.
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
  range of rounds: records park in the farm's local CSPOT log (CSPOT's
  delay tolerance) and flush, in order, at the first healthy round, or
  stay parked if the fault outlasts the run. A fault on a round its farm
  never reaches is rejected at construction.

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
from repro.parallel.merge import merge_sketches, merge_streams
from repro.parallel.plan import CellFault, LinkFault
from repro.parallel.report import FabricParallelReport
from repro.parallel.shard import ShardRunner, ShardTask
from repro.sensors.station import WeatherStation, station_grid
from repro.simkernel import Engine
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
    """A fabric shard: the owned farms of an ``n_cells``-farm fabric.

    Every fault must strike a telemetry round its farm reaches.
    """

    n_cells: int
    link_faults: tuple[LinkFault, ...] = ()
    link: CrossShardLink = field(default_factory=farm_uplink)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_owned(
            "link fault", (f.cell_index for f in self.link_faults)
        )
        struck: list[tuple[CellFault | LinkFault, int]] = [
            (f, f.window) for f in self.faults
        ]
        struck += [(f, f.start_window) for f in self.link_faults]
        for fault, round_ in struck:
            if not self._reaches(fault.cell_index, round_):
                raise ValueError(
                    f"{fault} strikes round {round_}, which farm "
                    f"{fault.cell_index} never reaches in {self.horizon_s} s"
                )

    def _reaches(self, cell: int, round_: int) -> bool:
        """Whether a fault on farm ``cell``'s round ``round_`` can show.

        A round starts one interval after the previous round's sends: (r
        + 1) intervals in, later by every earlier round's transfer
        latencies (a severed round parks its records and takes no time).
        So a round due after the horizon never runs. One due exactly at
        the horizon shows only if it and every earlier round park: a
        round that sends ends after the horizon, and so do its records.
        A round due before the horizon may still be pushed past it; only
        a farm loop that keeps its clock (ROADMAP.md, item 1) makes the
        rule exact.
        """
        due = (round_ + 1) * FabricConfig.telemetry_interval_s
        if due != self.horizon_s:
            return due < self.horizon_s
        return all(
            any(f.cell_index == cell and f.severs(r) for f in self.link_faults)
            for r in range(round_ + 1)
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
    #: Envelopes exported toward the hub (includes flushed parked ones).
    sent: int = 0
    #: Records ever parked behind a severed link.
    parked_total: int = 0
    #: Records still parked when the run ended (fault outlasted it).
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
        self.config = FabricConfig(seed=task.seed)
        self.transport = Transport(self.engine)
        self.boundary = ShardBoundary(task.link)
        self.transport.bind_boundary(self.boundary)
        self._seqs: dict[int, int] = {c: 0 for c in task.cells}
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
            )
            self.engine.process(self._farm_loop(c), name=f"farm{c:03d}")

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
            cell, f"telemetry.{station_id}", payload
        )
        result = self._results[cell]
        result.sent += 1
        result.transfer_sketch.add(envelope.latency_s)
        self._record(
            cell, "cspot.export", round=round_, station=station_id,
            envelope_seq=envelope.seq, latency_s=envelope.latency_s,
        )
        return self.engine.timeout(envelope.latency_s)

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
    window_s: float = field(
        default=FabricConfig.telemetry_interval_s, init=False
    )
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
