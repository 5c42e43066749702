"""MAC-layer PRB scheduling.

Each scheduling round (one slot batch) the scheduler divides a PRB budget
among UEs with pending uplink demand. Two disciplines are provided:

* :class:`RoundRobinScheduler` -- equal shares, rotating the remainder, which
  is how srsRAN's default uplink scheduler behaves for saturating flows and
  what produces the "fair sharing" / "balanced performance" the paper reports
  for the two-user 5G experiments.
* :class:`ProportionalFairScheduler` -- weights shares by instantaneous
  channel quality over average realized rate; included because the 4G
  two-laptop runs show "uneven user allocation" (a PF-like capture effect).

Invariant (property-tested): allocations never exceed the budget and sum to
``min(budget, total demand in PRBs)`` -- PRBs are conserved.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.metrics import RATIO_BUCKETS, MetricsRegistry


@dataclass(frozen=True)
class UeDemand:
    """One UE's demand in a scheduling round.

    Attributes
    ----------
    ue_id:
        Stable identifier used for rotation/fairness state.
    prbs_wanted:
        PRBs the UE could use this round (``None``/large = saturating).
    cqi:
        Instantaneous channel quality (used by proportional-fair).
    """

    ue_id: str
    prbs_wanted: int
    cqi: int = 10

    def __post_init__(self) -> None:
        if self.prbs_wanted < 0:
            raise ValueError(f"negative PRB demand: {self.prbs_wanted}")


def round_robin_rounds(
    n_ues: int,
    budget: int,
    n_rounds: int,
    start_rotation: int,
    sorted_pos: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Closed-form :class:`RoundRobinScheduler` grants for uniform
    saturating demands, one row per round.

    The water-fill collapses when every UE wants at least the whole budget:
    each round grants ``budget // n`` PRBs to everyone plus one extra PRB to
    the ``budget % n`` UEs at rotating positions in *sorted ue_id* order
    (the scalar scheduler's remainder rotation). ``sorted_pos[j]`` is column
    ``j``'s rank in that sorted order. Returns the ``(n_rounds, n_ues)``
    int64 grants matrix and the rotation counter after ``n_rounds`` rounds.
    Bit-identical to looping ``allocate`` (property-tested).
    """
    if n_ues <= 0:
        raise ValueError(f"n_ues must be positive: {n_ues}")
    base, extra = divmod(budget, n_ues)
    grants = np.full((n_rounds, n_ues), base, dtype=np.int64)
    if extra == 0:
        # Budget divides evenly: the scalar loop never reaches the
        # remainder-rotation branch, so the rotation counter is untouched.
        return grants, start_rotation
    # Round r's extra PRBs go to sorted ranks start_rotation + r + i
    # (mod n_ues), i < extra: set those cells by index, a (rounds x extra)
    # job rather than a (rounds x n_ues) one.
    column_of_rank = np.empty_like(sorted_pos)
    column_of_rank[sorted_pos] = np.arange(n_ues, dtype=np.int64)
    rounds = np.arange(n_rounds, dtype=np.int64)[:, None]
    ranks = (start_rotation + rounds + np.arange(extra, dtype=np.int64)) % n_ues
    grants[rounds, column_of_rank[ranks]] += 1
    return grants, start_rotation + n_rounds


class MacScheduler(ABC):
    """Allocates a PRB budget among demanding UEs each round."""

    #: Unbound by default; the scheduling loop stays observation-free until
    #: :meth:`bind_metrics` is called (one ``is None`` branch per round).
    _metrics: Optional[MetricsRegistry] = None
    _cell: str = ""
    _round: int = 0

    @abstractmethod
    def allocate(self, demands: list[UeDemand], budget: int) -> dict[str, int]:
        """Return ``{ue_id: prbs}``; total never exceeds ``budget``."""

    def allocate_rounds(
        self, demands: list[UeDemand], budget: int, n_rounds: int
    ) -> np.ndarray:
        """Grants for ``n_rounds`` consecutive rounds as an int64 matrix.

        Row ``r`` is round ``r``; column ``j`` is ``demands[j]``. The
        default implementation loops :meth:`allocate`, so it is
        bit-identical to per-round scheduling by construction (including
        scheduler state evolution and metric observations). Disciplines
        with closed-form round structure override this with an
        array-at-a-time fast path.
        """
        if n_rounds < 0:
            raise ValueError(f"negative round count: {n_rounds}")
        out = np.zeros((n_rounds, len(demands)), dtype=np.int64)
        for r in range(n_rounds):
            alloc = self.allocate(demands, budget)
            for j, d in enumerate(demands):
                out[r, j] = alloc.get(d.ue_id, 0)
        return out

    def bind_metrics(
        self, registry: MetricsRegistry, cell: str = ""
    ) -> "MacScheduler":
        """Start recording per-round PRB utilization into ``registry``."""
        self._metrics = registry
        self._cell = cell
        self._round = 0
        return self

    def _observe(self, alloc: dict[str, int], budget: int) -> None:
        """Record one scheduling round (no-op until metrics are bound)."""
        m = self._metrics
        if m is None:
            return
        granted = sum(alloc.values())
        self._round += 1
        m.counter("radio.sched.rounds", help="scheduling rounds run").inc(
            cell=self._cell
        )
        m.counter("radio.sched.prbs_granted", help="PRBs granted").inc(
            granted, cell=self._cell
        )
        if budget > 0:
            util = granted / budget
            m.histogram(
                "radio.prb_utilization",
                help="fraction of the PRB budget granted per round",
                buckets=RATIO_BUCKETS,
            ).observe(util, cell=self._cell)
            m.series(
                "radio.prb_utilization_tti",
                help="per-round (TTI-batch) PRB utilization",
            ).append(self._round, util, cell=self._cell)
        for ue_id, prbs in sorted(alloc.items()):
            m.counter("radio.ue.prbs_granted", help="PRBs granted per UE").inc(
                prbs, cell=self._cell, ue=ue_id
            )

    @staticmethod
    def _validate(demands: list[UeDemand], budget: int) -> None:
        if budget < 0:
            raise ValueError(f"negative PRB budget: {budget}")
        ids = [d.ue_id for d in demands]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate UE ids in demand list: {ids}")


class RoundRobinScheduler(MacScheduler):
    """Equal-share allocation with a rotating remainder.

    Water-filling: UEs that want less than an equal share release the excess
    to the others, so no PRB is wasted while any demand is unmet.
    """

    def __init__(self) -> None:
        self._rotation = 0

    def allocate(self, demands: list[UeDemand], budget: int) -> dict[str, int]:
        self._validate(demands, budget)
        alloc = {d.ue_id: 0 for d in demands}
        remaining = {d.ue_id: d.prbs_wanted for d in demands}
        left = budget
        # Water-fill: repeatedly split what's left among still-hungry UEs.
        while left > 0:
            hungry = [uid for uid, want in remaining.items() if want > 0]
            if not hungry:
                break
            share, extra = divmod(left, len(hungry))
            if share == 0:
                # Fewer PRBs than hungry UEs: rotate who gets the leftovers.
                order = sorted(hungry)
                start = self._rotation % len(order)
                for i in range(extra):
                    uid = order[(start + i) % len(order)]
                    grant = min(1, remaining[uid])
                    alloc[uid] += grant
                    remaining[uid] -= grant
                    left -= grant
                self._rotation += 1
                break
            granted_any = False
            for uid in hungry:
                grant = min(share, remaining[uid])
                if grant:
                    alloc[uid] += grant
                    remaining[uid] -= grant
                    left -= grant
                    granted_any = True
            if not granted_any:
                break
        self._observe(alloc, budget)
        return alloc

    def allocate_rounds(
        self, demands: list[UeDemand], budget: int, n_rounds: int
    ) -> np.ndarray:
        """Vectorized multi-round grants for the saturating-demand case.

        When every UE could absorb the whole budget (how the gNB drives the
        scheduler for iperf-style saturation) and no metrics are bound, the
        per-round water-fill reduces to :func:`round_robin_rounds` -- one
        numpy expression for all rounds. Any other shape (partial demands,
        bound metrics whose per-round observations must be preserved) falls
        back to the bit-identical per-round loop.
        """
        if n_rounds < 0:
            raise ValueError(f"negative round count: {n_rounds}")
        saturating = bool(demands) and all(
            d.prbs_wanted >= budget for d in demands
        )
        if self._metrics is not None or not saturating or n_rounds == 0:
            return super().allocate_rounds(demands, budget, n_rounds)
        self._validate(demands, budget)
        ids = [d.ue_id for d in demands]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        sorted_pos = np.empty(len(ids), dtype=np.int64)
        sorted_pos[order] = np.arange(len(ids), dtype=np.int64)
        grants, self._rotation = round_robin_rounds(
            len(ids), budget, n_rounds, self._rotation, sorted_pos
        )
        return grants


class ProportionalFairScheduler(MacScheduler):
    """Weights PRB shares by instantaneous rate over trailing average rate.

    With static per-UE channel asymmetry this converges to unequal shares --
    the "uneven user allocation" seen in the paper's 4G two-laptop runs.
    """

    def __init__(self, ewma_alpha: float = 0.1) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha out of (0,1]: {ewma_alpha}")
        self.ewma_alpha = ewma_alpha
        self._avg_rate: dict[str, float] = {}

    def allocate(self, demands: list[UeDemand], budget: int) -> dict[str, int]:
        self._validate(demands, budget)
        alloc = {d.ue_id: 0 for d in demands}
        active = [d for d in demands if d.prbs_wanted > 0]
        if not active or budget == 0:
            self._observe(alloc, budget)
            return alloc
        # PF metric: instantaneous achievable rate / trailing average.
        metrics = np.array(
            [d.cqi / max(self._avg_rate.get(d.ue_id, 1e-9), 1e-9) for d in active]
        )
        weights = metrics / metrics.sum()
        grants = np.floor(weights * budget).astype(int)
        # Distribute the rounding remainder to the highest-metric UEs.
        for i in np.argsort(-metrics)[: budget - int(grants.sum())]:
            grants[i] += 1
        for d, g in zip(active, grants):
            granted = int(min(g, d.prbs_wanted))
            alloc[d.ue_id] = granted
        # Redistribute any released PRBs to UEs with unmet demand.
        left = budget - sum(alloc.values())
        for d in sorted(active, key=lambda d: -d.cqi):
            if left <= 0:
                break
            extra = min(left, d.prbs_wanted - alloc[d.ue_id])
            if extra > 0:
                alloc[d.ue_id] += extra
                left -= extra
        # Update trailing averages with the realized (cqi-weighted) rate.
        for d in active:
            realized = alloc[d.ue_id] * d.cqi
            prev = self._avg_rate.get(d.ue_id, realized or 1.0)
            self._avg_rate[d.ue_id] = (
                (1 - self.ewma_alpha) * prev + self.ewma_alpha * realized
            )
        self._observe(alloc, budget)
        return alloc
