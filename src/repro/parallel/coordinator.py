"""The coordinator: partition, barrier, hub, merge.

Two generic executors drive any shard runner window by window:

* :func:`run_shards_serial` -- every shard runs in-process, interleaved
  window by window. No pickling, no processes; the reference executor
  for byte-identity tests and the ``workers=1`` single-process baseline.
* :func:`run_shards_spawn` -- each shard runs in a spawned worker
  process behind a pipe (:mod:`repro.parallel.worker`). The **spawn**
  start method is required: a forked child would inherit the parent's
  RNG registry and import-time state mid-run (see REPRO404).

Traffic flows one way, from the shards to a :class:`HubRunner` that
runs here, in the coordinator. Both executors run the identical
per-barrier step: advance every shard to the barrier, collect the
envelopes each shard exported during the window, and hand them to the
hub, which then advances through the same window. Nothing is ever sent
back, so the shards need no quantum: under spawn they already run the
next window while the hub catches up, and the barriers (one per
sampling window) only batch what the shards send. Scenarios without
cross-shard traffic (the radio scale workload) pass ``hub=None``.

Failure surface (tested in ``tests/parallel/test_worker_failures.py``):
a worker that raises ships an ``("error", ...)`` message the coordinator
re-raises with worker context; a worker that dies silently closes or
resets its pipe, and the timed receive turns that (or a stall) into a
clear ``RuntimeError`` naming the worker -- the coordinator never hangs.

:class:`ShardedScenario` holds what every sharded scenario shares:
validation, the :class:`~repro.parallel.plan.ShardPlan`, the barrier
calendar, and dispatch to either executor. :class:`ShardedScaleScenario`
is the scale workload -- a declarative UE population sampled over a
horizon, partitioned by cell across workers and merged into one
:class:`~repro.parallel.report.ParallelReport`. (Its fabric sibling,
:class:`repro.core.fabric_sharded.ShardedFabricScenario`, drives the
same executors with its hub.)

Determinism invariant (tested in ``tests/parallel/``): same seed + same
scenario produce byte-identical reports for any worker count, either
executor and any barrier placement, because every quantity is keyed by
cell, every RNG stream is named by cell, the hub ingests every envelope
at its own exact arrival time in a total order, and every merge is
exact.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from dataclasses import KW_ONLY, dataclass, field
from multiprocessing.connection import Connection
from typing import Any, Optional, Protocol, Sequence

from repro.parallel.merge import merge_sketches, merge_streams
from repro.parallel.plan import CellFault, ShardPlan
from repro.parallel.report import ParallelReport
from repro.parallel.shard import CellShardResult, ScaleShardTask, ShardTask
from repro.parallel.worker import worker_main
from repro.radio.population import UEPopulation

EXECUTORS = ("serial", "spawn")

#: Default patience for one worker reply; generous because a barrier may
#: drain an arbitrarily dense window, but finite so a dead worker is an
#: error, not a hang.
DEFAULT_WORKER_TIMEOUT_S = 120.0


class HubRunner(Protocol):
    """The receiving end of a sharded run, driven in the coordinator.

    :meth:`advance` takes the envelopes every shard exported up to
    ``barrier_t``, then runs the hub through the same window: the hub is
    one window behind its senders, so it already holds every envelope
    that can arrive before ``barrier_t`` (none arrives before it is
    sent). The envelopes are opaque here: the hub that receives them
    defines them (the fabric's are
    :class:`~repro.cspot.boundary.FabricEnvelope`).
    """

    def advance(self, barrier_t: float, envelopes: Sequence[Any]) -> None: ...


def _to_hub(
    hub: Optional[HubRunner],
    per_worker_outbound: Sequence[tuple[Any, ...]],
    barrier_t: float,
) -> None:
    """One barrier's hub step: the window's envelopes, then the window."""
    envelopes = [e for batch in per_worker_outbound for e in batch]
    if hub is not None:
        hub.advance(barrier_t, envelopes)
    elif envelopes:
        raise RuntimeError(
            f"{len(envelopes)} cross-shard envelopes exported but the "
            "scenario runs without a hub"
        )


def run_shards_serial(
    tasks: Sequence[ShardTask],
    barriers: Sequence[float],
    hub: Optional[HubRunner] = None,
) -> list[Any]:
    """Drive every shard in-process, then the hub, window by window."""
    runners = [task.build_runner() for task in tasks]
    for barrier_t in barriers:
        for w, runner in enumerate(runners):
            try:
                runner.advance(barrier_t)
            except (Exception, SystemExit) as error:
                # SystemExit is the "die without a reply" injection; under
                # the serial executor it must surface as the same clear
                # coordinator error the spawn executor produces, not kill
                # the host process.
                raise RuntimeError(
                    f"shard worker {w} (cells {tasks[w].cells}) failed at "
                    f"barrier t={barrier_t}: {error!r}"
                ) from error
        _to_hub(hub, [r.collect_outbound() for r in runners], barrier_t)
    results: list[Any] = []
    for runner in runners:
        results.extend(runner.finish())
    return results


def _recv(
    conn: Connection, worker: int, timeout_s: float
) -> tuple[Any, ...]:
    """One timed receive; a lost pipe or a stall becomes a clear error."""
    if not conn.poll(timeout_s):
        raise RuntimeError(
            f"shard worker {worker} sent no reply within {timeout_s}s "
            "(stalled or deadlocked)"
        )
    try:
        message: tuple[Any, ...] = conn.recv()
    except (EOFError, OSError) as lost:
        # EOF: the worker closed its end. ECONNRESET: it exited with our
        # next message still unread in its end of the pipe.
        raise RuntimeError(
            f"shard worker {worker} died without a reply ({lost!r})"
        ) from lost
    return message


def _broadcast(pipes: Sequence[Connection], message: tuple[Any, ...]) -> None:
    for w, conn in enumerate(pipes):
        try:
            conn.send(message)
        except OSError as broken:
            raise RuntimeError(
                f"shard worker {w} is gone (could not send {message!r})"
            ) from broken


def _expect(
    message: tuple[Any, ...], kind: str, worker: int
) -> tuple[Any, ...]:
    if message[0] == "error":
        raise RuntimeError(f"shard worker {worker} failed: {message[1]}")
    if message[0] != kind:
        raise RuntimeError(
            f"protocol violation from worker {worker}: expected {kind!r}, "
            f"got {message[0]!r}"
        )
    return message


def run_shards_spawn(
    tasks: Sequence[ShardTask],
    barriers: Sequence[float],
    hub: Optional[HubRunner] = None,
    timeout_s: float = DEFAULT_WORKER_TIMEOUT_S,
) -> tuple[list[Any], list[dict[str, Any]]]:
    """Drive every shard in a spawned process; returns (results, timings).

    The workers run window k + 1 while the hub runs window k here.
    """
    ctx = mp.get_context("spawn")
    processes: list[mp.process.BaseProcess] = []
    pipes: list[Connection] = []
    results: list[Any] = []
    timings: list[dict[str, Any]] = []
    try:
        for task in tasks:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=worker_main, args=(child_conn,), daemon=True
            )
            process.start()
            child_conn.close()  # the worker holds its own end
            parent_conn.send(task)
            processes.append(process)
            pipes.append(parent_conn)
        if barriers:
            _broadcast(pipes, ("advance", barriers[0]))
        for i, barrier_t in enumerate(barriers):
            outbound = [
                _expect(_recv(conn, w, timeout_s), "done", w)[3]
                for w, conn in enumerate(pipes)
            ]
            if i + 1 < len(barriers):
                _broadcast(pipes, ("advance", barriers[i + 1]))
            _to_hub(hub, outbound, barrier_t)
        _broadcast(pipes, ("finish",))
        for w, conn in enumerate(pipes):
            reply = _expect(_recv(conn, w, timeout_s), "results", w)
            results.extend(reply[1])
            timings.append(dict(reply[2]))
        for process in processes:
            process.join(timeout=30.0)
    finally:
        for conn in pipes:
            conn.close()
        for process in processes:
            if process.is_alive():  # pragma: no cover - crash cleanup
                process.terminate()
                process.join(timeout=5.0)
    return results, timings


@dataclass(kw_only=True)
class ShardedScenario:
    """What every sharded scenario shares: plan, barriers, dispatch.

    Subclasses declare the workload (and their own ``horizon_s`` /
    ``window_s`` defaults), implement :meth:`_n_cells`, and build one
    task per worker for :meth:`_execute`.

    Parameters
    ----------
    seed:
        Master seed shared by every shard's registry.
    horizon_s / window_s:
        Simulated horizon and per-cell sampling window; one barrier
        falls at the end of every window.
    workers:
        Number of shards to execute concurrently (1..n_cells).
    executor:
        ``"serial"`` (in-process, the default) or ``"spawn"`` (see
        module docstring).
    relative_error:
        Error bound of the per-cell sketches.
    worker_timeout_s:
        Patience for one spawn-worker reply before declaring it dead.
    """

    seed: int = 0
    horizon_s: float
    window_s: float
    workers: int = 1
    executor: str = "serial"
    relative_error: float = 0.01
    worker_timeout_s: float = DEFAULT_WORKER_TIMEOUT_S
    #: Per-worker timing side channel from the last spawn run (empty for
    #: serial); wall-clock data stays out of the canonical report.
    last_timings: list[dict[str, Any]] = field(
        default_factory=list, init=False, repr=False
    )

    def __post_init__(self) -> None:
        # A NaN or infinite horizon or window would never reach its last
        # barrier; reject it here rather than hang in run().
        for name in ("horizon_s", "window_s", "worker_timeout_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite: {value}")
        if not 0.0 < self.relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1): {self.relative_error}"
            )
        if self.window_s > self.horizon_s:
            raise ValueError(
                f"window_s {self.window_s} exceeds horizon_s {self.horizon_s}"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; valid: {EXECUTORS}"
            )
        # Fails fast on workers < 1 or workers > n_cells.
        self.plan: ShardPlan = ShardPlan.build(self._n_cells(), self.workers)

    def _n_cells(self) -> int:
        raise NotImplementedError

    @property
    def n_windows(self) -> int:
        return int(self.horizon_s // self.window_s)

    def _barriers(self) -> tuple[float, ...]:
        return self.plan.barrier_times(self.horizon_s, self.window_s)

    def _execute(
        self, tasks: Sequence[ShardTask], hub: Optional[HubRunner] = None
    ) -> list[Any]:
        """Run every shard on the configured executor; results by cell."""
        barriers = self._barriers()
        results: list[Any]
        if self.executor == "serial":
            results = run_shards_serial(tasks, barriers, hub)
            self.last_timings = []
        else:
            results, self.last_timings = run_shards_spawn(
                tasks, barriers, hub, timeout_s=self.worker_timeout_s
            )
        results.sort(key=lambda r: r.cell_index)
        return results


@dataclass
class ShardedScaleScenario(ShardedScenario):
    """A population-scale radio simulation, sharded across workers.

    The shared parameters (seed, workers, executor, ...) are documented
    on :class:`ShardedScenario`.

    Parameters
    ----------
    population:
        Declarative fleet description; realized per cell from
        ``shard.cell<ccc>.*`` streams inside each owning worker.
    horizon_s / window_s:
        Sampling horizon (default 60 s) and window (default 10 s): each
        cell produces ``window_s`` one-second samples per UE per window.
        ``window_s`` must be a whole number of seconds and ``horizon_s``
        a whole number of windows.
    faults:
        Chaos faults, each routed to the worker owning its cell; each
        must target one of the run's windows.
    """

    population: UEPopulation
    _: KW_ONLY
    horizon_s: float = 60.0
    window_s: float = 10.0
    faults: tuple[CellFault, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        # The tasks check the windows and the faults: build them now, so a
        # config that would sample wrongly or inject nothing fails here.
        self._tasks()

    def _n_cells(self) -> int:
        return self.population.n_cells

    def _tasks(self) -> list[ScaleShardTask]:
        routed = self.plan.route_faults(self.faults)
        return [
            ScaleShardTask(
                population=self.population,
                seed=self.seed,
                horizon_s=self.horizon_s,
                window_s=self.window_s,
                cells=cells,
                faults=routed[w],
                relative_error=self.relative_error,
            )
            for w, cells in enumerate(self.plan.assignments)
        ]

    # -- the run -----------------------------------------------------------------

    def run(self) -> ParallelReport:
        """Execute every shard and merge the results canonically."""
        results: list[CellShardResult] = self._execute(self._tasks())
        merged_sketch = merge_sketches(
            (r.sketch for r in results), self.relative_error
        )
        trace = merge_streams([r.records for r in results])
        per_cell_ues = tuple(r.n_ues for r in results)
        samples = sum(r.samples for r in results)
        # fsum over cell-ordered per-cell sums would equal merged_sketch.sum
        # (exact partials); use the sketch so one code path owns the sum.
        mean_bps = (
            merged_sketch.sum / merged_sketch.count if merged_sketch.count else 0.0
        )
        return ParallelReport(
            n_cells=self.plan.n_cells,
            total_ues=sum(per_cell_ues),
            sim_seconds=self.horizon_s,
            n_windows=self.n_windows,
            events_processed=sum(r.events for r in results),
            samples_generated=samples,
            aggregate_mean_bps=mean_bps,
            per_cell_ues=per_cell_ues,
            sketch=merged_sketch.to_dict(),
            trace=tuple(trace),
        )
