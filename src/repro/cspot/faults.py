"""Fault injection: partitions, ack loss, power loss schedules.

"Devices operating in remote locations using 5G connectivity can be subject
to frequent network interruption" (section 3.1) -- the delay-tolerance tests
drive these injectors to show that retried appends deliver exactly once
through arbitrary partition/power-loss schedules.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional

import numpy as np


class FaultInjector:
    """Per-path fault schedule.

    Partitions are half-open windows ``[start, end)`` of simulated time in
    which messages on the path fail. Ack loss is i.i.d. with probability
    ``ack_loss_prob`` applied to the acknowledgement leg only (producing the
    paper's "append succeeded but the sequence number was lost" mode).

    Ack-loss draws require a registry-derived generator: either pass
    ``rng`` explicitly (derive it from the engine's
    :class:`~repro.simkernel.rng.RngRegistry`) or let
    :meth:`~repro.cspot.transport.Transport.connect` bind a per-path named
    stream. There is deliberately *no* silent fallback generator -- a
    fixed-seed default would ignore the master seed, so campaigns with
    different seeds would replay identical ack-loss sequences.
    """

    def __init__(
        self,
        ack_loss_prob: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= ack_loss_prob < 1.0:
            raise ValueError(f"ack_loss_prob out of [0,1): {ack_loss_prob}")
        self.ack_loss_prob = ack_loss_prob
        self._rng = rng
        self._starts: list[float] = []
        self._ends: list[float] = []

    def bind_rng(self, rng: np.random.Generator) -> None:
        """Attach the ack-loss stream if none was passed at construction.

        Idempotent in the sense that an explicitly supplied generator is
        never overridden; :class:`~repro.cspot.transport.Transport` calls
        this when a path is connected so default-constructed injectors end
        up on a named, master-seed-derived stream.
        """
        if self._rng is None:
            self._rng = rng

    def add_partition(self, start: float, end: float) -> None:
        """Schedule a partition window [start, end)."""
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"partition window must be finite: [{start}, {end})")
        if end <= start:
            raise ValueError(f"empty partition window [{start}, {end})")
        # Keep windows sorted and non-overlapping for O(log n) queries.
        for s, e in zip(self._starts, self._ends):
            if start < e and s < end:
                raise ValueError(
                    f"partition [{start}, {end}) overlaps existing [{s}, {e})"
                )
        idx = bisect_right(self._starts, start)
        self._starts.insert(idx, start)
        self._ends.insert(idx, end)

    def add_outage(self, start: float, duration: float) -> None:
        """Schedule a partition by start time + duration (campaign idiom).

        Unlike :meth:`add_partition`, overlap with existing windows is
        allowed: only the uncovered gaps of ``[start, start+duration)``
        are added, so concurrent fault campaigns merge instead of raising.
        """
        if not (math.isfinite(start) and math.isfinite(duration)):
            raise ValueError(
                f"outage must be finite: start={start}, duration={duration}"
            )
        end = start + duration
        if end <= start:
            raise ValueError(f"empty outage window [{start}, {end})")
        cursor = start
        for s, e in zip(list(self._starts), list(self._ends)):
            if e <= cursor:
                continue
            if s >= end:
                break
            if s > cursor:
                self.add_partition(cursor, s)
            cursor = max(cursor, e)
        if cursor < end:
            self.add_partition(cursor, end)

    @property
    def partition_windows(self) -> list[tuple[float, float]]:
        """The scheduled ``[start, end)`` windows, sorted by start."""
        return list(zip(self._starts, self._ends))

    def partitioned_at(self, t: float) -> bool:
        """Is the path partitioned at simulated time ``t``?"""
        idx = bisect_right(self._starts, t) - 1
        return idx >= 0 and t < self._ends[idx]

    def next_heal_after(self, t: float) -> Optional[float]:
        """End of the partition window covering ``t``, or None."""
        idx = bisect_right(self._starts, t) - 1
        if idx >= 0 and t < self._ends[idx]:
            return self._ends[idx]
        return None

    def drop_ack(self) -> bool:
        """Draw whether this operation's acknowledgement is lost."""
        if self.ack_loss_prob == 0.0:
            return False
        if self._rng is None:
            raise RuntimeError(
                "FaultInjector with ack_loss_prob > 0 has no generator; "
                "pass rng= (derived from the RngRegistry) or register the "
                "path via Transport.connect, which binds a named stream"
            )
        return bool(self._rng.random() < self.ack_loss_prob)
