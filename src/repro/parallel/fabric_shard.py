"""The shard-local slice of a sharded fabric: sites, CSPOT nodes, sensors.

A :class:`FabricShardRunner` (on the shared
:class:`~repro.parallel.shard.ShardRunner` skeleton) owns a contiguous
block of *sites* (farm cells in the paper's multi-farm reading). Each
site carries its own sensor source and its own
:class:`~repro.cspot.node.CSPOTNode`: every sampling window the site
reads its sensors, appends the telemetry to its local CSPOT log
(durable-first, the paper's discipline), and forwards a summary to the
fabric **hub** site -- the repository cell every other site reports
into (the UCSB role in Fig. 3).

The hub transfer always crosses the shard boundary seam
(:meth:`~repro.cspot.transport.Transport.export_append`), *even when the
hub happens to live on the same worker*: the coordinator's
:class:`~repro.parallel.envelope.FabricBus` assigns every envelope the
same barrier-clamped delivery time whatever the partition, which is what
makes the merged report byte-identical for any worker count.

Chaos enters at two deterministic seams:

* :class:`~repro.parallel.plan.CellFault` derates a site's sensor block
  for one window (a sensor/radio degradation);
* :class:`~repro.parallel.plan.LinkFault` severs the site's cross-shard
  CSPOT link for a window range: transfers are *parked* in the local log
  (CSPOT's delay tolerance) and flushed in order at the first healthy
  window, or counted as parked if the fault outlasts the run.

Every number a runner produces is a function of
``(master seed, cell index, window)`` -- RNG streams are named by cell
(``shard.cell<ccc>.sensors`` / ``.transfer``), results are keyed by cell,
and hub-side ingestion processes envelopes in the bus's total order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.cspot.boundary import CrossShardLink, FabricEnvelope, ShardBoundary
from repro.cspot.node import CSPOTNode
from repro.cspot.transport import Transport
from repro.obs.slo import budget_record
from repro.obs.stream import QuantileSketch
from repro.parallel.plan import LinkFault, shard_stream
from repro.parallel.shard import ShardRunner, ShardTask
from repro.simkernel.events import Event

#: Telemetry summary frame: mean wind (f64), window index (u32), source
#: cell (u32) -- 16 bytes, well under the 64-byte log element.
TELEMETRY_FRAME = "<dII"
TELEMETRY_ELEMENT_SIZE = 64

#: The mean diurnal wind profile the synthetic sensors ride on (m/s).
BASE_WIND_MPS = 5.0
DIURNAL_AMPLITUDE_MPS = 3.0
DIURNAL_PERIOD_WINDOWS = 24
SENSOR_NOISE_MPS = 0.8


def pack_telemetry(mean_mps: float, window: int, src_cell: int) -> bytes:
    """Pack one site's window summary into its CSPOT log frame."""
    return struct.pack(TELEMETRY_FRAME, mean_mps, window, src_cell)


def unpack_telemetry(payload: bytes) -> tuple[float, int, int]:
    """Inverse of :func:`pack_telemetry`: (mean_mps, window, src_cell)."""
    mean_mps, window, src_cell = struct.unpack(TELEMETRY_FRAME, payload)
    return float(mean_mps), int(window), int(src_cell)


@dataclass(frozen=True, kw_only=True)
class FabricShardTask(ShardTask):
    """A fabric shard: the owned sites of an ``n_cells``-site fabric."""

    n_cells: int
    hub_cell: int = 0
    sensors_per_cell: int = 4
    transfer_budget_s: float = 1.0
    alert_threshold_mps: float = 1.5
    link_faults: tuple[LinkFault, ...] = ()
    link: CrossShardLink = field(default_factory=CrossShardLink)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.hub_cell < self.n_cells:
            raise ValueError(
                f"hub cell {self.hub_cell} out of [0, {self.n_cells})"
            )
        if self.sensors_per_cell < 1:
            raise ValueError(
                f"sensors_per_cell must be >= 1: {self.sensors_per_cell}"
            )
        if self.transfer_budget_s <= 0:
            raise ValueError(
                f"transfer_budget_s must be positive: {self.transfer_budget_s}"
            )
        if self.alert_threshold_mps <= 0:
            raise ValueError(
                f"alert_threshold_mps must be positive: "
                f"{self.alert_threshold_mps}"
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
    samples: int = 0
    local_appends: int = 0
    #: Engine events this site processed (window samples + hub ingests).
    events: int = 0
    #: Envelopes exported toward the hub (includes flushed parked ones).
    sent: int = 0
    #: Transfers ever parked behind a severed link.
    parked_total: int = 0
    #: Transfers still parked when the run ended (fault outlasted it).
    parked_remaining: int = 0
    #: Hub side: envelopes ingested (nonzero only on the hub's result).
    delivered: int = 0
    #: Hub side: change alerts raised.
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
    """Advances one fabric shard's sites window by window."""

    task: FabricShardTask

    def __init__(self, task: FabricShardTask) -> None:
        super().__init__(task)
        self.transport = Transport(self.engine)
        self.boundary = ShardBoundary(task.link)
        self.transport.bind_boundary(self.boundary)

        self._nodes: dict[int, CSPOTNode] = {}
        self._sensor_rngs = {
            c: self.engine.rng(shard_stream(c, "sensors")) for c in task.cells
        }
        self._transfer_rngs = {
            c: self.engine.rng(shard_stream(c, "transfer"))
            for c in task.cells
        }
        self._record_seq: dict[int, int] = {c: 0 for c in task.cells}
        self._slo_seq: dict[int, int] = {c: 0 for c in task.cells}
        self._parked: dict[int, list[bytes]] = {c: [] for c in task.cells}
        self._link_faults: dict[int, list[LinkFault]] = {
            c: [] for c in task.cells
        }
        for link_fault in task.link_faults:
            self._link_faults[link_fault.cell_index].append(link_fault)
        #: Hub-side change detection state: last mean seen per source.
        self._last_mean: dict[int, float] = {}

        for c in task.cells:
            node = CSPOTNode(self.engine, f"site{c:03d}")
            node.create_log(
                "telemetry",
                element_size=TELEMETRY_ELEMENT_SIZE,
                history_size=4096,
            )
            if c == task.hub_cell:
                node.create_log(
                    "fabric.telemetry",
                    element_size=TELEMETRY_ELEMENT_SIZE,
                    history_size=8192,
                )
                node.create_log(
                    "fabric.alerts",
                    element_size=TELEMETRY_ELEMENT_SIZE,
                    history_size=4096,
                )
            self._nodes[c] = node
            self._results[c] = SiteShardResult(
                cell_index=c,
                transfer_sketch=QuantileSketch.identity(task.relative_error),
                ingest_sketch=QuantileSketch.identity(task.relative_error),
            )
        self._schedule_windows()

    # -- accounting -------------------------------------------------------------

    def _next_record_seq(self, cell: int) -> int:
        seq = self._record_seq[cell]
        self._record_seq[cell] = seq + 1
        return seq

    def _next_slo_seq(self, cell: int) -> int:
        seq = self._slo_seq[cell]
        self._slo_seq[cell] = seq + 1
        return seq

    # -- the sampling window ----------------------------------------------------

    def _severed(self, cell: int, window: int) -> bool:
        return any(f.severs(window) for f in self._link_faults[cell])

    def _make_window(self, cell: int, window: int) -> Callable[[Event], None]:
        task = self.task
        rng = self._sensor_rngs[cell]
        result = self._results[cell]
        node = self._nodes[cell]
        derate = self._derates.get((cell, window))

        def _window(_event: Event) -> None:
            now = self.engine.now
            base = BASE_WIND_MPS + DIURNAL_AMPLITUDE_MPS * math.sin(
                2.0 * math.pi * window / DIURNAL_PERIOD_WINDOWS
            )
            readings = base + rng.normal(
                0.0, SENSOR_NOISE_MPS, size=task.sensors_per_cell
            )
            if derate is not None:
                readings = readings * derate
            mean = float(readings.mean())
            payload = pack_telemetry(mean, window, cell)
            node.local_append("telemetry", payload)
            result.events += 1
            result.samples += task.sensors_per_cell
            result.local_appends += 1
            result.records.append({
                "t": now,
                "shard": cell,
                "seq": self._next_record_seq(cell),
                "kind": "site.sample",
                "window": window,
                "mean_mps": mean,
                "samples": task.sensors_per_cell,
                "derate": 1.0 if derate is None else derate,
            })
            if self._severed(cell, window):
                self._parked[cell].append(payload)
                result.parked_total += 1
                result.records.append({
                    "t": now,
                    "shard": cell,
                    "seq": self._next_record_seq(cell),
                    "kind": "site.parked",
                    "window": window,
                    "parked": len(self._parked[cell]),
                })
                return
            # Healthy link: flush everything parked (in order), then the
            # fresh summary -- CSPOT's "parked until active" discipline.
            to_send = self._parked[cell] + [payload]
            self._parked[cell] = []
            for frame in to_send:
                envelope = self.transport.export_append(
                    cell,
                    task.hub_cell,
                    "fabric.telemetry",
                    frame,
                    self._transfer_rngs[cell],
                )
                result.sent += 1
                result.transfer_sketch.add(envelope.latency_s)
                result.records.append({
                    "t": now,
                    "shard": cell,
                    "seq": self._next_record_seq(cell),
                    "kind": "cspot.export",
                    "window": window,
                    "envelope_seq": envelope.seq,
                    "dst": task.hub_cell,
                    "latency_s": envelope.latency_s,
                })

        return _window

    # -- cross-shard delivery ---------------------------------------------------

    def deliver(self, envelopes: Sequence[FabricEnvelope]) -> None:
        """Schedule inbound envelopes for ingestion at their delivery times.

        The coordinator hands envelopes at a barrier, already sorted by
        ``(deliver_t, src_cell, seq)`` with ``deliver_t`` at or after the
        *next* barrier -- so scheduling order (and therefore same-instant
        FIFO order) is worker-count-invariant.
        """
        owned = self._results
        for envelope in envelopes:
            if envelope.dst_cell not in owned:
                raise ValueError(
                    f"envelope for cell {envelope.dst_cell} delivered to a "
                    f"shard owning {sorted(owned)}"
                )
            deliver_t = envelope.delivery_key[0]
            self.engine.schedule_at(deliver_t).add_callback(
                self._make_ingest(envelope)
            )

    def _make_ingest(
        self, envelope: FabricEnvelope
    ) -> Callable[[Event], None]:
        task = self.task
        hub = envelope.dst_cell
        result = self._results[hub]
        node = self._nodes[hub]

        def _ingest(_event: Event) -> None:
            now = self.engine.now
            latency = now - envelope.send_t
            node.local_append("fabric.telemetry", envelope.payload)
            mean, window, src = unpack_telemetry(envelope.payload)
            result.events += 1
            result.delivered += 1
            result.ingest_sketch.add(latency)
            result.records.append({
                "t": now,
                "shard": hub,
                "seq": self._next_record_seq(hub),
                "kind": "hub.ingest",
                "src": src,
                "window": window,
                "mean_mps": mean,
                "latency_s": latency,
            })
            result.slo.append(budget_record(
                t=now,
                shard=hub,
                seq=self._next_slo_seq(hub),
                slo="cspot.transfer",
                value_s=latency,
                budget_s=task.transfer_budget_s,
                src=src,
            ))
            last = self._last_mean.get(src)
            if last is not None and abs(mean - last) >= task.alert_threshold_mps:
                result.alerts += 1
                node.local_append("fabric.alerts", envelope.payload)
                result.records.append({
                    "t": now,
                    "shard": hub,
                    "seq": self._next_record_seq(hub),
                    "kind": "hub.alert",
                    "src": src,
                    "window": window,
                    "delta_mps": mean - last,
                })
            self._last_mean[src] = mean

        return _ingest

    # -- the barrier protocol ---------------------------------------------------

    def collect_outbound(self) -> tuple[FabricEnvelope, ...]:
        """Envelopes exported during the window just drained."""
        return self.boundary.drain()

    def finish(self) -> list[SiteShardResult]:
        """Per-site results in cell-index order (ascending, stable)."""
        for c, parked in self._parked.items():
            self._results[c].parked_remaining = len(parked)
        return super().finish()
