"""The fabric message bus: cross-shard envelopes at window barriers.

The coordinator half of the cross-shard CSPOT protocol. Shards export
:class:`~repro.cspot.boundary.FabricEnvelope` messages through their
transport's shard boundary; at every global barrier the coordinator
collects the outbound envelopes each shard produced in the window it just
drained and routes them through a :class:`FabricBus`:

1. **Delivery barrier** -- an envelope collected at barrier ``b_k`` is
   handed to its destination shard at ``b_k`` but *delivers* (becomes a
   simulation event) no earlier than the next barrier ``b_{k+1}``:
   ``deliver_t = max(send_t + latency_s, b_{k+1})``. The quantum is
   bounded by the minimum cross-shard interaction delay
   (``CSPOT_TRANSFER_FLOOR_S``), so the clamp is conservatively correct:
   nothing can cross the 5G + backhaul path faster than one quantum.
2. **Total order** -- inbound envelopes are sorted by
   ``(deliver_t, src_cell, seq)`` before delivery, and every key must be
   unique over the whole run (duplicates are rejected loudly), so the
   destination shard ingests them in one worker-count-invariant order.
3. **In-flight accounting** -- envelopes collected at the *final* barrier
   (or whose unclamped arrival is past the horizon) have no delivery
   barrier left; they are counted as in flight at the horizon, exactly
   like telemetry parked mid-transfer when a real run ends.

Intra-shard traffic takes the same path: a transfer whose source and
destination happen to share a worker still goes through the bus, so the
delivered timeline is byte-identical whatever the partition.
"""

from __future__ import annotations

from typing import Iterable

from repro.cspot.boundary import FabricEnvelope
from repro.parallel.plan import ShardPlan


class FabricBus:
    """Routes envelopes between shards at the conservative barriers."""

    def __init__(self, plan: ShardPlan, horizon_s: float) -> None:
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive: {horizon_s}")
        self.plan = plan
        self.horizon_s = horizon_s
        self._seen: set[tuple[float, int, int]] = set()
        #: Envelopes still in flight when the run ended, in key order.
        self.in_flight: list[FabricEnvelope] = []
        self.delivered = 0

    def route(
        self,
        outbound: Iterable[FabricEnvelope],
        next_barrier_t: float | None,
    ) -> list[list[FabricEnvelope]]:
        """Assign delivery times and group envelopes by destination worker.

        ``next_barrier_t`` is the barrier after the one just drained
        (``None`` at the final barrier: everything still outbound is in
        flight). Returns one inbound list per worker, each sorted by
        ``(deliver_t, src_cell, seq)``.
        """
        inbound: list[list[FabricEnvelope]] = [
            [] for _ in range(self.plan.n_workers)
        ]
        for envelope in sorted(outbound, key=lambda e: e.key):
            if envelope.key in self._seen:
                raise ValueError(
                    "duplicate envelope key (send_t, src_cell, seq)="
                    f"{envelope.key}: the cross-shard stream must be a "
                    "total order"
                )
            self._seen.add(envelope.key)
            if next_barrier_t is None:
                self.in_flight.append(envelope)
                continue
            deliver_t = max(envelope.arrival_t, next_barrier_t)
            if deliver_t > self.horizon_s:
                # Arrives after the run ends: in flight at the horizon.
                self.in_flight.append(envelope)
                continue
            stamped = envelope.stamped(deliver_t)
            inbound[self.plan.owner_of(envelope.dst_cell)].append(stamped)
        for worker_inbound in inbound:
            worker_inbound.sort(key=lambda e: e.delivery_key)
            self.delivered += len(worker_inbound)
        return inbound

    @property
    def in_flight_bytes(self) -> int:
        """Total payload bytes still in flight at the horizon."""
        return sum(len(e.payload) for e in self.in_flight)

    def in_flight_keys(self) -> tuple[tuple[float, int, int], ...]:
        """The in-flight envelopes' keys, in total order (for reports)."""
        return tuple(e.key for e in self.in_flight)

