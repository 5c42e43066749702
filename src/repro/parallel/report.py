"""The merged result of a sharded run, canonical by construction.

A :class:`ParallelReport` (radio scale) or :class:`FabricParallelReport`
(full fabric with cross-shard CSPOT transfers) contains only quantities
that are provably invariant under the worker count: integer accounting
summed over cells, float statistics read off exact merged sketches, and
``(t, shard, seq)``-ordered trace/SLO streams. Worker count, executor
choice, and wall-clock timings are deliberately *absent* -- they live on
the scenario object -- so
``canonical_json()`` (and therefore ``digest``) is byte-identical for
shard counts 1, 2, 4, 8 of the same seeded scenario.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from repro.parallel.merge import canonical_json, canonical_jsonl


@dataclass(frozen=True)
class ParallelReport:
    """What a sharded scale run did, merged across every shard."""

    n_cells: int
    total_ues: int
    sim_seconds: float
    n_windows: int
    events_processed: int
    samples_generated: int
    #: ``merged_sketch.sum / merged_sketch.count`` -- exact, so invariant.
    aggregate_mean_bps: float
    per_cell_ues: tuple[int, ...]
    #: Merged throughput sketch snapshot (``QuantileSketch.to_dict``).
    sketch: dict[str, Any]
    #: Merged trace records in ``(t, shard, seq)`` total order.
    trace: tuple[dict[str, Any], ...]

    def to_json(self) -> dict[str, Any]:
        """JSON-ready payload (everything but the trace stream)."""
        return {
            "n_cells": self.n_cells,
            "total_ues": self.total_ues,
            "sim_seconds": self.sim_seconds,
            "n_windows": self.n_windows,
            "events_processed": self.events_processed,
            "samples_generated": self.samples_generated,
            "aggregate_mean_mbps": self.aggregate_mean_bps / 1e6,
            "per_cell_ues": list(self.per_cell_ues),
            "sketch": self.sketch,
        }

    def canonical_json(self) -> str:
        """The canonical byte form asserted identical across shard counts."""
        payload = self.to_json()
        payload["trace"] = list(self.trace)
        return canonical_json(payload)

    def trace_jsonl(self) -> str:
        """The merged trace stream as canonical JSONL."""
        return canonical_jsonl(self.trace)

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical bytes -- the shard-identity fingerprint."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FabricParallelReport:
    """What a sharded fabric run did: farms, transfers, decisions, SLOs.

    The cross-shard counterpart of :class:`ParallelReport`. Everything
    here is keyed by cell or carried in ``(t, shard, seq)`` total order,
    so the canonical bytes are invariant under worker count, executor,
    partition and barrier placement -- including the transfer
    accounting: the hub ingests each envelope at exactly
    ``send_t + latency_s``, a function of the sender's cell alone. The
    hub's own records carry shard id ``n_sites``.
    """

    n_sites: int
    sim_seconds: float
    #: Nominal telemetry rounds in the horizon (``horizon // interval``).
    n_windows: int
    #: Station readings taken, over every farm.
    samples: int
    #: Cross-shard transfer ledger: sent = delivered + in_flight, where
    #: in flight means arriving after the horizon (parked records became
    #: envelopes only once flushed).
    transfers_sent: int
    transfers_delivered: int
    transfers_in_flight: int
    in_flight_bytes: int
    #: Records parked behind severed links (total ever / still parked).
    parked_total: int
    parked_remaining: int
    #: Hub-side duty-cycle decisions (one Laminar epoch per farm and
    #: cycle) and the change alerts among them.
    decisions: int
    alerts: int
    per_site_samples: tuple[int, ...]
    per_site_sent: tuple[int, ...]
    per_site_parked: tuple[int, ...]
    #: Merged transfer-latency sketch snapshot (every envelope sent).
    transfer_sketch: dict[str, Any]
    #: Merged SLO timeline in ``(t, shard, seq)`` total order.
    slo: tuple[dict[str, Any], ...]
    #: Merged trace records in ``(t, shard, seq)`` total order.
    trace: tuple[dict[str, Any], ...]

    def to_json(self) -> dict[str, Any]:
        """JSON-ready payload (everything but the record streams)."""
        return {
            "n_sites": self.n_sites,
            "sim_seconds": self.sim_seconds,
            "n_windows": self.n_windows,
            "samples": self.samples,
            "transfers_sent": self.transfers_sent,
            "transfers_delivered": self.transfers_delivered,
            "transfers_in_flight": self.transfers_in_flight,
            "in_flight_bytes": self.in_flight_bytes,
            "parked_total": self.parked_total,
            "parked_remaining": self.parked_remaining,
            "decisions": self.decisions,
            "alerts": self.alerts,
            "per_site_samples": list(self.per_site_samples),
            "per_site_sent": list(self.per_site_sent),
            "per_site_parked": list(self.per_site_parked),
            "transfer_sketch": self.transfer_sketch,
        }

    def canonical_json(self) -> str:
        """The canonical byte form asserted identical across shard counts."""
        payload = self.to_json()
        payload["slo"] = list(self.slo)
        payload["trace"] = list(self.trace)
        return canonical_json(payload)

    def trace_jsonl(self) -> str:
        """The merged trace stream as canonical JSONL."""
        return canonical_jsonl(self.trace)

    def slo_jsonl(self) -> str:
        """The merged SLO timeline as canonical JSONL."""
        return canonical_jsonl(self.slo)

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical bytes -- the shard-identity fingerprint."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
