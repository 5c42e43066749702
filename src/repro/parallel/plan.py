"""Shard topology: which worker owns which cells, and what that implies.

The deterministic partition unit is the **cell** (one farm/site in the
paper's multi-farm reading): cell indices are stable properties of the
scenario, so everything keyed by cell -- RNG stream names, trace shard
ids, fault routing -- is invariant under the worker count. Workers are an
execution detail: a :class:`ShardPlan` maps the ``n_cells`` stable shards
onto ``n_workers`` processes in contiguous balanced blocks (sizes differ
by at most one cell), and nothing a worker computes depends on which
block it drew.

The plan also derives the conservative synchronization window: workers
may only advance ``sync_window_s`` past the last global barrier, where
``sync_window_s`` is bounded by the minimum cross-shard interaction delay
(for this fabric, the CSPOT transfer latency floor -- no message can
affect another shard sooner than it can cross the 5G + backhaul path).
``interaction_delay_s=None`` declares the shards fully decoupled, in
which case the sampling window itself is the natural barrier quantum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, TypeVar

# The canonical per-shard stream-name helper lives in the stream
# registry (the constants module every subsystem's names migrate onto);
# re-exported here because the plan is where shard ids are minted.
from repro.simkernel.streams import shard_stream

__all__ = [
    "CSPOT_TRANSFER_FLOOR_S",
    "CellFault",
    "LinkFault",
    "ShardPlan",
    "shard_stream",
]

#: Conservative default for the minimum cross-shard interaction delay:
#: the paper's measured ~200 ms sensor->HPC CSPOT transfer floor
#: (section 4.4); no cross-shard effect can propagate faster.
CSPOT_TRANSFER_FLOOR_S = 0.2


@dataclass(frozen=True)
class CellFault:
    """A chaos fault routed to the shard owning ``cell_index``.

    The fault derates every sample the cell produces in sampling window
    ``window`` (a radio fade / capacity loss on that farm's cell). In the
    sharded fabric a window is one telemetry round, and the derate
    scales that round's wind readings (a degraded sensor block).
    Deterministic by construction: the derate applies to the cell's own
    sample block, which is identical regardless of worker count.
    """

    cell_index: int
    window: int
    derate: float = 0.5

    def __post_init__(self) -> None:
        if self.cell_index < 0:
            raise ValueError(f"negative cell index: {self.cell_index}")
        if self.window < 0:
            raise ValueError(f"negative window: {self.window}")
        if not 0.0 <= self.derate <= 1.0:
            raise ValueError(f"derate must be in [0, 1]: {self.derate}")


@dataclass(frozen=True)
class LinkFault:
    """A chaos fault severing one site's cross-shard CSPOT link.

    While severed (windows -- telemetry rounds -- ``start_window``..
    ``end_window``, inclusive), the site cannot reach the fabric hub: its
    records are *parked* in the local CSPOT log (the paper's
    delay-tolerant discipline) and flushed, in order, at the first healthy
    round after the link is restored. A fault that outlasts the run leaves the
    payloads parked -- counted, never lost.

    Routed to the worker owning ``cell_index`` (the *sender* side of the
    link), so the parking decision is a function of ``(cell, window)``
    alone and the outcome is worker-count-invariant.
    """

    cell_index: int
    start_window: int
    end_window: int

    def __post_init__(self) -> None:
        if self.cell_index < 0:
            raise ValueError(f"negative cell index: {self.cell_index}")
        if self.start_window < 0:
            raise ValueError(f"negative start window: {self.start_window}")
        if self.end_window < self.start_window:
            raise ValueError(
                f"end_window {self.end_window} precedes start_window "
                f"{self.start_window}"
            )

    def severs(self, window: int) -> bool:
        """Whether the link is down during sampling window ``window``."""
        return self.start_window <= window <= self.end_window


class _CellKeyed(Protocol):
    """Anything routable by owning cell (CellFault, LinkFault, ...)."""

    @property
    def cell_index(self) -> int: ...


FaultT = TypeVar("FaultT", bound=_CellKeyed)


@dataclass(frozen=True)
class ShardPlan:
    """The cell-to-worker assignment for one sharded run."""

    n_cells: int
    n_workers: int
    #: ``assignments[w]`` is the tuple of cell indices worker ``w`` owns,
    #: contiguous and ascending.
    assignments: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, n_cells: int, n_workers: int) -> "ShardPlan":
        """Balanced contiguous blocks; sizes differ by at most one cell."""
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1: {n_workers}")
        if n_workers > n_cells:
            raise ValueError(
                f"cannot give {n_workers} workers at least one of "
                f"{n_cells} cells"
            )
        base, extra = divmod(n_cells, n_workers)
        assignments: list[tuple[int, ...]] = []
        start = 0
        for w in range(n_workers):
            size = base + (1 if w < extra else 0)
            assignments.append(tuple(range(start, start + size)))
            start += size
        return cls(
            n_cells=n_cells,
            n_workers=n_workers,
            assignments=tuple(assignments),
        )

    def owner_of(self, cell_index: int) -> int:
        """The worker id that owns ``cell_index``."""
        if not 0 <= cell_index < self.n_cells:
            raise ValueError(
                f"cell index {cell_index} out of [0, {self.n_cells})"
            )
        for w, cells in enumerate(self.assignments):
            if cells and cells[0] <= cell_index <= cells[-1]:
                return w
        raise RuntimeError(  # pragma: no cover - build() covers every cell
            f"no worker owns cell {cell_index}"
        )

    def route_by_cell(
        self, faults: Sequence[FaultT]
    ) -> tuple[tuple[FaultT, ...], ...]:
        """Group cell-keyed faults by owning worker, preserving order.

        Each fault lands exactly on the worker whose shard contains the
        faulted cell; declaration order is preserved within a worker so
        stacked faults on one (cell, window) compose deterministically.
        The routing is *total*: every fault appears on exactly one worker.
        """
        routed: list[list[FaultT]] = [[] for _ in range(self.n_workers)]
        for fault in faults:
            routed[self.owner_of(fault.cell_index)].append(fault)
        return tuple(tuple(r) for r in routed)

    def route_faults(
        self, faults: Sequence[CellFault]
    ) -> tuple[tuple[CellFault, ...], ...]:
        """Route derate faults (see :meth:`route_by_cell`)."""
        return self.route_by_cell(faults)

    def route_link_faults(
        self, faults: Sequence[LinkFault]
    ) -> tuple[tuple[LinkFault, ...], ...]:
        """Route link-severing faults to the *sender* shard."""
        return self.route_by_cell(faults)

    def sync_window_s(
        self, window_s: float, interaction_delay_s: Optional[float]
    ) -> float:
        """The conservative barrier quantum for this plan.

        No shard may advance more than the minimum cross-shard
        interaction delay past the last barrier (events it would receive
        cannot arrive sooner), so the quantum is
        ``min(window_s, interaction_delay_s)``. A ``None`` delay declares
        the shards decoupled: the sampling window is the quantum.
        """
        if not (math.isfinite(window_s) and window_s > 0):
            raise ValueError(f"window_s must be positive and finite: {window_s}")
        if interaction_delay_s is None:
            return window_s
        if not (math.isfinite(interaction_delay_s) and interaction_delay_s > 0):
            raise ValueError(
                f"interaction_delay_s must be positive and finite: "
                f"{interaction_delay_s}"
            )
        return min(window_s, interaction_delay_s)

    def barrier_times(
        self,
        horizon_s: float,
        window_s: float,
        interaction_delay_s: Optional[float],
    ) -> tuple[float, ...]:
        """Every global barrier the coordinator will impose, in order.

        Multiples of the sync quantum up to and including the horizon;
        the horizon itself is always the final barrier so every shard
        finishes at the same instant.
        """
        if not (math.isfinite(horizon_s) and horizon_s > 0):
            raise ValueError(f"horizon_s must be positive and finite: {horizon_s}")
        quantum = self.sync_window_s(window_s, interaction_delay_s)
        times: list[float] = []
        k = 1
        while True:
            t = k * quantum
            if t >= horizon_s:
                break
            times.append(t)
            k += 1
        times.append(horizon_s)
        return tuple(times)
