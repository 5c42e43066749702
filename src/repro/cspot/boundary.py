"""The shard boundary: CSPOT transfers that leave the local engine.

A sharded fabric run (:mod:`repro.parallel`) puts each farm on a shard
and the hub in the coordinator, so a farm's append to the hub's
repository cannot execute locally -- there is no server object to
deliver to. The farm's send instead stamps a :class:`FabricEnvelope`
(:func:`stamp_envelope`), a time-stamped, totally-ordered message the
coordinator collects at the next window barrier and hands to the hub,
which ingests it at exactly ``send_t + latency_s``.

The envelope's key ``(send_t, src_cell, seq)`` mirrors the
``(t, shard, seq)`` total order of the merge layer: ``send_t`` is the
simulated send time, ``src_cell`` the stable shard id of the sender, and
``seq`` the sender's count of earlier transfers -- so the global envelope
stream has one worker-count-invariant order with no run-to-run ambiguity.

Latency is stamped from the sender's per-cell RNG stream
(``shard.cell<ccc>.transfer``), which makes the draw a function of
``(master seed, cell, draw index)`` alone -- never of the worker layout.
The two-round-trip cost model mirrors
:meth:`~repro.cspot.transport.Transport.remote_append`: four path legs
(size fetch + response, payload, ack) plus the server-side append cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cspot.transport import (
    DEFAULT_APPEND_COST_S,
    NetworkPath,
    lognormal_delay_s,
)
from repro.simkernel import Engine
from repro.simkernel.streams import shard_stream

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
    """One cross-shard CSPOT transfer, from a farm shard to the hub.

    Attributes
    ----------
    send_t / src_cell / seq:
        The total-order key: simulated send time, stable shard id of the
        sending cell, and the sender's monotonic transfer counter.
    log:
        Destination log name on the hub.
    payload:
        The appended bytes, verbatim.
    latency_s:
        End-to-end transfer latency stamped at export time from the
        sender's per-cell stream.
    """

    send_t: float
    src_cell: int
    seq: int
    log: str
    payload: bytes
    latency_s: float

    def __post_init__(self) -> None:
        if self.src_cell < 0:
            raise ValueError(f"negative cell index: {self.src_cell}")
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
    def arrival_t(self) -> float:
        """When the hub ingests the transfer: exactly ``send_t + latency_s``."""
        return self.send_t + self.latency_s


def stamp_envelope(
    engine: Engine,
    link: CrossShardLink,
    *,
    src_cell: int,
    seq: int,
    log: str,
    payload: bytes,
) -> FabricEnvelope:
    """Stamp one transfer farm ``src_cell`` sends at ``engine.now``.

    ``seq`` is the sender's count of earlier transfers. The latency is
    drawn from the sender's ``shard.cell<ccc>.transfer`` stream, so it
    depends on the seed, the cell and the draw index, not on what else
    the engine carries.
    """
    return FabricEnvelope(
        send_t=engine.now,
        src_cell=src_cell,
        seq=seq,
        log=log,
        payload=payload,
        latency_s=link.transfer_latency_s(
            engine.rng(shard_stream(src_cell, "transfer"))
        ),
    )
