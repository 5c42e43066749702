"""The shard-local half of a sharded run: one engine, a few cells.

:class:`ShardTask` and :class:`ShardRunner` are the skeleton both
workload families share: the picklable task (seed, horizon, owned cells,
routed cell faults, injected crash) and a runner that owns a contiguous
block of cells from the plan and advances them under the coordinator's
barriers. The radio scale family lives here (:class:`ScaleShardTask` /
:class:`ScaleShardRunner`, one sampling event per cell and window); the
fabric family subclasses the same skeleton in
:mod:`repro.core.fabric_sharded`, where each cell is a farm site.

All of a runner's randomness comes from per-cell named streams
(:func:`~repro.parallel.plan.shard_stream`), all of its output is keyed
by cell index, and each cell's windows are processed in increasing order
-- together these make every number a runner produces a function of
``(master seed, cell index, window)`` alone, never of the worker layout.

The runner is executor-agnostic: the serial executor drives the same
class in-process that :mod:`repro.parallel.worker` drives inside a
spawned process, so the two paths cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Iterable, Optional, TypeVar

import numpy as np

from repro.obs.stream import QuantileSketch
from repro.parallel.plan import CellFault, shard_stream
from repro.radio.population import CellPopulation, UEPopulation
from repro.simkernel.engine import Engine
from repro.simkernel.events import Event

#: Crash modes for :class:`WorkerCrash` protocol-failure injection.
CRASH_MODES = ("raise", "exit")


@dataclass(frozen=True)
class WorkerCrash:
    """Injected worker-protocol failure, for coordinator resilience tests.

    ``mode="raise"`` raises mid-window (the worker ships the error over
    the pipe before dying); ``mode="exit"`` terminates the worker without
    a protocol reply, so the coordinator sees the pipe close (EOF). The
    crash fires at the start of the ``barrier_index``-th ``advance`` call
    (0-based). This is an executor-level fault -- it tests the protocol's
    failure surface, not the simulation -- so it is keyed by worker, not
    by cell.
    """

    barrier_index: int
    mode: str = "raise"

    def __post_init__(self) -> None:
        if self.barrier_index < 0:
            raise ValueError(
                f"negative barrier index: {self.barrier_index}"
            )
        if self.mode not in CRASH_MODES:
            raise ValueError(
                f"unknown crash mode {self.mode!r}; valid: {CRASH_MODES}"
            )


@dataclass(frozen=True, kw_only=True)
class ShardTask:
    """Everything a worker needs to run its shard (picklable for spawn).

    Subclasses add their workload's fields and implement
    :meth:`_n_cells` (the scenario's cell count) and :meth:`build_runner`.
    """

    seed: int
    horizon_s: float
    cells: tuple[int, ...]
    faults: tuple[CellFault, ...] = ()
    relative_error: float = 0.01
    #: Injected protocol failure (tests only; None in production runs).
    crash: Optional[WorkerCrash] = None

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive: {self.horizon_s}")
        if not self.cells:
            raise ValueError("a shard task must own at least one cell")
        n_cells = self._n_cells()
        for c in self.cells:
            if not 0 <= c < n_cells:
                raise ValueError(f"cell {c} out of [0, {n_cells})")
        self._require_owned("fault", (f.cell_index for f in self.faults))

    def _require_owned(self, what: str, cells: Iterable[int]) -> None:
        owned = set(self.cells)
        for c in cells:
            if c not in owned:
                raise ValueError(
                    f"{what} on cell {c} routed to a shard owning "
                    f"{sorted(owned)}"
                )

    def _n_cells(self) -> int:
        raise NotImplementedError

    def build_runner(self) -> ShardRunner[Any]:
        """The runner this task calls for (both executors use this)."""
        raise NotImplementedError


ResultT = TypeVar("ResultT")


class ShardRunner(Generic[ResultT]):
    """Advances one shard's cells on a local engine, barrier by barrier.

    Subclasses build their per-cell state, ``_results`` and the events
    that drive them after ``super().__init__``. A runner receives
    nothing; it sends envelopes to the hub only if it overrides
    :meth:`collect_outbound`.
    """

    def __init__(self, task: ShardTask) -> None:
        self.task = task
        self.engine = Engine(seed=task.seed)
        self._advances = 0
        self._results: dict[int, ResultT] = {}
        #: Multiplicative derate per (cell, window): stacked faults compose.
        self._derates: dict[tuple[int, int], float] = {}
        for fault in task.faults:
            key = (fault.cell_index, fault.window)
            self._derates[key] = self._derates.get(key, 1.0) * fault.derate

    def advance(self, barrier_t: float) -> int:
        """Drain every event up to the barrier; return events processed.

        A shard never receives, so nothing can land in the window it
        drains: everything up to ``barrier_t`` is safe to process.
        """
        crash = self.task.crash
        if crash is not None and self._advances == crash.barrier_index:
            if crash.mode == "raise":
                raise RuntimeError(
                    f"injected shard crash (cells {self.task.cells}) at "
                    f"barrier #{crash.barrier_index} (t={barrier_t})"
                )
            # "exit": die without a protocol reply; under spawn the
            # coordinator sees the pipe close (SystemExit is not an
            # Exception, so the worker loop cannot convert it to an
            # ("error", ...) message).
            raise SystemExit(3)
        self._advances += 1
        return self.engine.drain_window(barrier_t)

    def collect_outbound(self) -> tuple[Any, ...]:
        """Envelopes exported during the window just drained (none by default)."""
        return ()

    def finish(self) -> list[ResultT]:
        """Per-cell results in cell-index order (ascending, stable).

        Events past the horizon may stay pending (a send still in flight
        when the run ends); none at or before it may.
        """
        if self.engine.peek() <= self.task.horizon_s:
            raise RuntimeError(
                f"shard finished with events pending at t={self.engine.peek()}"
                f" <= horizon {self.task.horizon_s}; advance() must reach the "
                "horizon first"
            )
        return [self._results[c] for c in sorted(self._results)]


# -- the radio scale shard ------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ScaleShardTask(ShardTask):
    """A radio scale shard: the owned cells of a declarative population,
    sampled once per ``window_s`` window.

    Each window takes one sample per UE per simulated second, so
    ``window_s`` must be a whole number of seconds, ``horizon_s`` a whole
    number of windows, and every fault must fall in one of those windows.
    """

    population: UEPopulation
    window_s: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.window_s > 0 and float(self.window_s).is_integer()):
            raise ValueError(
                f"window_s must be a positive whole number of seconds: "
                f"{self.window_s}"
            )
        if self.horizon_s % self.window_s:
            raise ValueError(
                f"horizon_s {self.horizon_s} is not a whole number of "
                f"{self.window_s} s windows"
            )
        n_windows = int(self.horizon_s // self.window_s)
        for fault in self.faults:
            if fault.window >= n_windows:
                raise ValueError(
                    f"fault on cell {fault.cell_index} targets window "
                    f"{fault.window} of a {n_windows}-window run"
                )

    def _n_cells(self) -> int:
        return self.population.n_cells

    def build_runner(self) -> ScaleShardRunner:
        return ScaleShardRunner(self)


@dataclass
class CellShardResult:
    """One cell's complete contribution, shipped back at FINISH."""

    cell_index: int
    n_ues: int
    samples: int
    events: int
    #: Exact per-cell throughput sketch; merged at the coordinator in
    #: cell-index order (pickles exactly: bins and the exact sum are ints).
    sketch: QuantileSketch
    #: Sim-time-ordered trace records, each carrying the total-order key
    #: ``(t, shard=cell_index, seq=window)``.
    records: list[dict[str, Any]] = field(default_factory=list)


class ScaleShardRunner(ShardRunner[CellShardResult]):
    """Samples every owned cell's UEs once per window."""

    task: ScaleShardTask

    def __init__(self, task: ScaleShardTask) -> None:
        super().__init__(task)
        population = task.population
        counts = population.cell_counts(self.engine.rngs)
        cells = population.realize_cells(self.engine.rngs, task.cells, counts)
        self._cells: dict[int, CellPopulation] = dict(zip(task.cells, cells))
        self._rngs = {
            c: self.engine.rng(shard_stream(c, "radio")) for c in task.cells
        }
        self._samples_per_window = int(task.window_s)
        # Every window samples into this block (fresh ones left heap holes).
        self._block = np.empty(max(p.n_ues for p in cells) * self._samples_per_window)
        for c in task.cells:
            self._results[c] = CellShardResult(
                cell_index=c,
                n_ues=self._cells[c].n_ues,
                samples=0,
                events=0,
                sketch=QuantileSketch.identity(task.relative_error),
            )
        # The full calendar up front: every owned cell's window event on
        # the shared boundary timestamp (the same-timestamp storm the
        # calendar queue batches in O(1)).
        for w in range(int(task.horizon_s // task.window_s)):
            when = w * task.window_s
            for c in task.cells:
                self.engine.schedule_at(when).add_callback(
                    self._make_window(c, w)
                )

    def _make_window(self, cell: int, window: int) -> Callable[[Event], None]:
        population = self._cells[cell]
        rng = self._rngs[cell]
        result = self._results[cell]
        n_samples = self._samples_per_window
        out = self._block[:population.n_ues * n_samples].reshape(-1, n_samples)
        # None = no fault on this (cell, window); avoids a float sentinel.
        derate = self._derates.get((cell, window))

        def _sample(_event: Event) -> None:
            block = population.uplink_matrix(rng, n_samples, out)
            if derate is not None:
                block *= derate  # the block is this call's own: no copy
            result.sketch.add_array(block)
            result.samples += block.size
            result.events += 1
            result.records.append({
                "t": self.engine.now,
                "shard": cell,
                "seq": window,
                "kind": "window.sample",
                "cell": population.name,
                "n_ues": population.n_ues,
                "samples": int(block.size),
                "sum_bps": float(block.sum()),
                "derate": 1.0 if derate is None else derate,
            })

        return _sample
