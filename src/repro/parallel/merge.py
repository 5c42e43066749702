"""Deterministic merge of per-shard results into one canonical view.

Two merge algebras, each chosen because it is *exactly* invariant under
the partition:

* **Sketches** -- :meth:`repro.obs.stream.QuantileSketch.merge` is exact
  (fixed bucket boundaries, integer bin counts, exact Shewchuk sums), so
  merging per-cell sketches in cell-index order reproduces the unsharded
  sketch snapshot byte for byte whatever the worker count.
* **Streams** -- trace/metric/SLO-timeline records interleave in
  simulated-time order with the total tie-break ``(t, shard, seq)``:
  simultaneous records order by stable shard id, then by the shard's own
  sequence number. Every record carries all three keys, so the merged
  stream is a total order with no run-to-run ambiguity.
"""

from __future__ import annotations

import heapq
import json
from typing import Any, Iterable

from repro.obs.stream import QuantileSketch

#: The total-order key every mergeable stream record carries.
STREAM_KEY_FIELDS = ("t", "shard", "seq")


def stream_key(record: dict[str, Any]) -> tuple[float, int, int]:
    """The total-order key of one stream record: ``(t, shard, seq)``."""
    try:
        return (
            float(record["t"]),
            int(record["shard"]),
            int(record["seq"]),
        )
    except KeyError as missing:
        raise ValueError(
            f"stream record missing total-order key field {missing}: "
            f"{sorted(record)}"
        ) from missing


def merge_streams(
    streams: Iterable[Iterable[dict[str, Any]]],
) -> list[dict[str, Any]]:
    """Interleave per-shard record streams into one total order.

    Each input stream must already be sorted by :func:`stream_key` (a
    shard emits its own records in simulated-time order); the merge is a
    k-way heap merge, O(total log shards). Ties at the same simulated
    time break by shard id then per-shard sequence number, so the merged
    order is total and worker-count-invariant.

    ``(t, shard, seq)`` must be a *total* order: two records sharing a
    key would merge in input-stream order, which is exactly the
    worker-layout dependence this layer exists to exclude -- so
    duplicate keys are rejected loudly.
    """
    merged = list(heapq.merge(*streams, key=stream_key))
    for previous, record in zip(merged, merged[1:]):
        if stream_key(previous) == stream_key(record):
            raise ValueError(
                "duplicate stream key (t, shard, seq)="
                f"{stream_key(record)}: the merged stream must be a "
                "total order"
            )
    return merged


def merge_sketches(
    sketches: Iterable[QuantileSketch],
    relative_error: float,
    max_bins: int = 4096,
) -> QuantileSketch:
    """Fold sketches into a fresh identity sketch, in iteration order.

    The fold is exact, so iteration order does not change the result --
    but callers should still pass cell-index order for auditability.
    """
    merged = QuantileSketch.identity(relative_error, max_bins)
    for sketch in sketches:
        merged.merge(sketch)
    return merged


def canonical_json(payload: Any) -> str:
    """The canonical serialization: sorted keys, no whitespace.

    The single JSON shape used for byte-identity assertions; both the
    merged report and its trace records pass through here.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_jsonl(records: Iterable[dict[str, Any]]) -> str:
    """Canonical JSONL: one canonical record per line, newline-terminated."""
    lines = [canonical_json(record) for record in records]
    return "".join(line + "\n" for line in lines)
