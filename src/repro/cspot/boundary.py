"""The shard boundary: CSPOT transfers that leave the local engine.

A sharded fabric run (:mod:`repro.parallel`) partitions the CSPOT node
topology by cell, so an append whose destination node lives on another
shard cannot execute locally -- there is no server object to deliver to.
This module is the transport's seam for exactly that case: the append is
*exported* as a :class:`FabricEnvelope`, a time-stamped, totally-ordered
message the coordinator carries across the shard boundary at the next
conservative window barrier.

The envelope's key ``(send_t, src_cell, seq)`` mirrors the
``(t, shard, seq)`` total order of the merge layer: ``send_t`` is the
simulated send time, ``src_cell`` the stable shard id of the sender, and
``seq`` a per-source monotonic counter -- so the global envelope stream
has one worker-count-invariant order with no run-to-run ambiguity.

Latency is stamped at export time from a per-cell named RNG stream
(``shard.cell<ccc>.transfer``, drawn by
:meth:`~repro.cspot.transport.Transport.export_append`), which makes the
draw a function of ``(master seed, cell, draw index)`` alone -- never of
the worker layout. The two-round-trip cost model mirrors
:meth:`Transport._append_body`: four path legs (size fetch + response,
payload, ack) plus the server-side append cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.cspot.transport import (
    DEFAULT_APPEND_COST_S,
    NetworkPath,
    lognormal_delay_s,
)

#: Message legs in one uncached remote append: size request, size
#: response, payload transfer, ack (section 4.2's two-round-trip protocol).
TRANSFER_LEGS = 4


@dataclass(frozen=True)
class CrossShardLink:
    """The latency model of one cross-shard CSPOT path: pure data.

    Mirrors a :class:`~repro.cspot.transport.NetworkPath`'s latency shape
    plus the two-round-trip append protocol cost, so exported transfers
    are stamped with the same distribution an in-engine
    :meth:`~repro.cspot.transport.Transport.remote_append` would spend.
    Build one from a calibrated path with :meth:`from_path`; the sharded
    fabric's farm uplink is ``from_path(unl_ucsb_5g())``.

    Deliberately *not* a wrapped ``NetworkPath``: the link rides inside
    every :class:`~repro.core.fabric_sharded.FabricShardTask` across
    the coordinator->worker pickling seam, and a ``NetworkPath`` carries
    a :class:`~repro.cspot.faults.FaultInjector` whose bound generator is
    ambient state, which ``tests/parallel/test_seam_purity.py`` rejects
    on the real tasks. Everything here is a plain scalar, so a pickled
    link is a value, never a snapshot of live RNG state.
    """

    name: str
    one_way_ms: float
    jitter_ms: float
    append_cost_s: float = DEFAULT_APPEND_COST_S

    def __post_init__(self) -> None:
        if not 0 < self.one_way_ms < math.inf:
            raise ValueError(
                f"one_way_ms must be positive and finite: {self.one_way_ms}"
            )
        if not 0 <= self.jitter_ms < math.inf:
            raise ValueError(
                f"jitter_ms must be non-negative and finite: {self.jitter_ms}"
            )
        if not 0 <= self.append_cost_s < math.inf:
            raise ValueError(
                "append_cost_s must be non-negative and finite: "
                f"{self.append_cost_s}"
            )

    @classmethod
    def from_path(
        cls, path: NetworkPath, append_cost_s: float = DEFAULT_APPEND_COST_S
    ) -> "CrossShardLink":
        """The pure link equivalent of ``path`` (drops its fault state)."""
        return cls(
            name=path.name,
            one_way_ms=path.one_way_ms,
            jitter_ms=path.jitter_ms,
            append_cost_s=append_cost_s,
        )

    def delay_s(self, rng: np.random.Generator) -> float:
        """Draw one leg's latency (same math as ``NetworkPath.delay_s``)."""
        return lognormal_delay_s(self.one_way_ms, self.jitter_ms, rng)

    def transfer_latency_s(self, rng: np.random.Generator) -> float:
        """Draw one transfer's end-to-end latency (4 legs + append cost)."""
        legs = sum(self.delay_s(rng) for _ in range(TRANSFER_LEGS))
        return legs + self.append_cost_s


@dataclass(frozen=True)
class FabricEnvelope:
    """One cross-shard CSPOT transfer, carried between window barriers.

    Attributes
    ----------
    send_t / src_cell / seq:
        The total-order key: simulated send time, stable shard id of the
        sending cell, and the sender's monotonic transfer counter.
    dst_cell:
        Stable shard id of the destination cell (the owner of the target
        CSPOT node).
    log:
        Destination log name on the receiving node.
    payload:
        The appended bytes, verbatim.
    latency_s:
        End-to-end transfer latency stamped at export time from the
        sender's per-cell stream.
    deliver_t:
        Assigned by the coordinator's bus: the simulated delivery time,
        ``max(send_t + latency_s, next barrier)`` -- never earlier than
        the barrier after the sending window (conservatively correct by
        construction). ``None`` until routed.
    """

    send_t: float
    src_cell: int
    seq: int
    dst_cell: int
    log: str
    payload: bytes
    latency_s: float
    deliver_t: Optional[float] = None

    def __post_init__(self) -> None:
        if self.src_cell < 0 or self.dst_cell < 0:
            raise ValueError(
                f"negative cell index: src={self.src_cell} dst={self.dst_cell}"
            )
        if self.seq < 0:
            raise ValueError(f"negative envelope seq: {self.seq}")
        if self.latency_s <= 0:
            raise ValueError(f"latency_s must be positive: {self.latency_s}")
        if not self.log:
            raise ValueError("empty destination log name")

    @property
    def key(self) -> tuple[float, int, int]:
        """The ``(t, shard, seq)``-shaped total-order key."""
        return (self.send_t, self.src_cell, self.seq)

    @property
    def delivery_key(self) -> tuple[float, int, int]:
        """``(deliver_t, src_cell, seq)``: the destination ingest order."""
        if self.deliver_t is None:
            raise ValueError(
                f"envelope {self.key} has not been routed yet "
                "(deliver_t unassigned)"
            )
        return (self.deliver_t, self.src_cell, self.seq)

    @property
    def arrival_t(self) -> float:
        """Unclamped arrival time; the bus clamps it to the next barrier."""
        return self.send_t + self.latency_s

    def stamped(self, deliver_t: float) -> "FabricEnvelope":
        """A copy with the bus-assigned delivery time."""
        if deliver_t < self.send_t:
            raise ValueError(
                f"deliver_t {deliver_t} precedes send_t {self.send_t}"
            )
        return replace(self, deliver_t=deliver_t)


class ShardBoundary:
    """Collects appends destined for CSPOT nodes owned by another shard.

    One boundary per shard-local :class:`~repro.cspot.transport.Transport`.
    Every exported append becomes a :class:`FabricEnvelope` with a
    per-source monotonic ``seq``; the shard runner drains the buffer at
    each window barrier and hands the envelopes to the coordinator.
    """

    def __init__(self, link: CrossShardLink) -> None:
        self.link = link
        self._outbound: list[FabricEnvelope] = []
        self._seqs: dict[int, int] = {}
        self.exported = 0

    def export(
        self,
        *,
        send_t: float,
        src_cell: int,
        dst_cell: int,
        log: str,
        payload: bytes,
        rng: np.random.Generator,
    ) -> FabricEnvelope:
        """Buffer one outbound transfer; returns the stamped envelope."""
        seq = self._seqs.get(src_cell, 0)
        self._seqs[src_cell] = seq + 1
        envelope = FabricEnvelope(
            send_t=send_t,
            src_cell=src_cell,
            seq=seq,
            dst_cell=dst_cell,
            log=log,
            payload=payload,
            latency_s=self.link.transfer_latency_s(rng),
        )
        self._outbound.append(envelope)
        self.exported += 1
        return envelope

    def drain(self) -> tuple[FabricEnvelope, ...]:
        """Hand back (and clear) every envelope exported since last drain."""
        out = tuple(self._outbound)
        self._outbound.clear()
        return out

    def __len__(self) -> int:
        return len(self._outbound)
