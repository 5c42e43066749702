"""The coordinator's failure surface: crashes become errors, never hangs.

Two injected failure modes (:class:`~repro.parallel.shard.WorkerCrash`):
``"raise"`` -- the worker raises mid-window and ships the error over the
pipe; ``"exit"`` -- the worker dies without a protocol reply
(``SystemExit`` is not an ``Exception``, so the worker loop cannot
convert it to an ``("error", ...)`` message and the coordinator sees the
pipe close). A worker that exits before it reads the coordinator's next
message resets the pipe instead. Each must surface as a clear
``RuntimeError`` naming the worker, on both executors, within bounded
time.
"""

import os
from dataclasses import dataclass

import pytest

from repro.core.fabric_sharded import (
    FabricHubRunner,
    FabricShardTask,
    ShardedFabricScenario,
)
from repro.parallel import (
    CellFault,
    ScaleShardTask,
    ShardedScaleScenario,
    ShardPlan,
    WorkerCrash,
    run_shards_serial,
    run_shards_spawn,
)
from repro.radio.population import Distribution, RandomVariable, UEPopulation

pytestmark = pytest.mark.filterwarnings("error")

N_SITES = 4


def _scale_task(**overrides):
    """One shard of a 2-cell scale scenario (cell 0 unless overridden)."""
    fields = dict(
        population=UEPopulation(
            n_cells=2, ues_per_cell=RandomVariable(5.0, Distribution.POISSON)
        ),
        seed=3,
        horizon_s=4.0,
        window_s=2.0,
        cells=(0,),
    )
    return ScaleShardTask(**{**fields, **overrides})


#: Past the first telemetry round (t=300 s), so fabric shards send
#: envelopes to the hub before the horizon.
FABRIC_HORIZON_S = 400.0


def _fabric_task(**overrides):
    """One shard of a 2-site fabric (site 0 unless overridden)."""
    fields = dict(n_cells=2, seed=3, horizon_s=FABRIC_HORIZON_S, cells=(0,))
    return FabricShardTask(**{**fields, **overrides})


def _fabric_tasks(crash=None, crash_worker=1):
    plan = ShardPlan.build(N_SITES, 2)
    return plan, [
        _fabric_task(
            n_cells=N_SITES,
            cells=cells,
            crash=crash if w == crash_worker else None,
        )
        for w, cells in enumerate(plan.assignments)
    ]


def _fabric_barriers(plan):
    return plan.barrier_times(FABRIC_HORIZON_S, 300.0)


def _fabric_hub():
    return FabricHubRunner(N_SITES, 3, FABRIC_HORIZON_S)


@dataclass(frozen=True, kw_only=True)
class _ExitingTask(ScaleShardTask):
    """A task whose worker exits before it reads its first ``advance``."""

    def build_runner(self):
        os._exit(3)


def _radio_tasks(crash=None):
    plan = ShardPlan.build(2, 2)
    return plan, [
        _scale_task(cells=cells, crash=crash if w == 1 else None)
        for w, cells in enumerate(plan.assignments)
    ]


#: The rejections both task families inherit from ``ShardTask``, each as
#: (overrides on a valid one-cell task of a 2-cell scenario, message).
SHARED_REJECTIONS = {
    "non-positive horizon": ({"horizon_s": 0.0}, "horizon_s"),
    "no cells": ({"cells": ()}, "at least one cell"),
    "cell out of range": ({"cells": (5,)}, r"cell 5 out of \[0, 2\)"),
    "fault on an unowned cell": (
        {"faults": (CellFault(cell_index=1, window=0),)},
        "fault on cell 1 routed",
    ),
}


class TestTaskValidation:
    @pytest.mark.parametrize(
        "build", [_scale_task, _fabric_task], ids=["scale", "fabric"]
    )
    @pytest.mark.parametrize("case", sorted(SHARED_REJECTIONS))
    def test_shared_rejection(self, build, case):
        build()  # the unmodified task is valid
        overrides, message = SHARED_REJECTIONS[case]
        with pytest.raises(ValueError, match=message):
            build(**overrides)


def test_scale_task_rejects_non_positive_window():
    with pytest.raises(ValueError, match="window_s"):
        _scale_task(window_s=-1.0)


def _scale_scenario(**overrides):
    fields = dict(horizon_s=4.0, window_s=2.0)
    return ShardedScaleScenario(_scale_task().population, **{**fields, **overrides})


def _fabric_scenario(**overrides):
    fields = dict(n_sites=2, horizon_s=FABRIC_HORIZON_S)
    return ShardedFabricScenario(**{**fields, **overrides})


NAN, INF = float("nan"), float("inf")

#: Scenario inputs that would make ``run()`` spin forever on its barrier
#: schedule, fail only inside it, or run but sample wrongly or inject
#: nothing: (family, overrides, message). The fabric family fixes its
#: window.
SCENARIO_REJECTIONS = [
    ("scale", {"horizon_s": NAN}, "horizon_s"),
    ("scale", {"horizon_s": INF}, "horizon_s"),
    ("scale", {"window_s": NAN}, "window_s"),
    ("scale", {"worker_timeout_s": 0.0}, "worker_timeout_s"),
    ("scale", {"relative_error": NAN}, "relative_error"),
    # A window takes one sample per UE per second: 2.5 s and 0.5 s
    # windows would take 2 and 1.
    ("scale", {"horizon_s": 5.0, "window_s": 2.5}, "whole number of seconds"),
    ("scale", {"horizon_s": 3.0, "window_s": 0.5}, "whole number of seconds"),
    # A partial last window is never sampled, yet the report counts it.
    ("scale", {"horizon_s": 5.0}, "not a whole number of 2.0 s windows"),
    ("scale", {"horizon_s": 25.0, "window_s": 10.0}, "whole number of 10.0"),
    # The run has windows 0 and 1: a later fault would change nothing.
    ("scale", {"faults": (CellFault(cell_index=0, window=2),)}, "window 2 of"),
    ("scale", {"faults": (CellFault(cell_index=1, window=5),)}, "window 5 of"),
    ("fabric", {"horizon_s": NAN}, "horizon_s"),
    ("fabric", {"horizon_s": INF}, "horizon_s"),
    ("fabric", {"worker_timeout_s": 0.0}, "worker_timeout_s"),
    ("fabric", {"relative_error": NAN}, "relative_error"),
]


@pytest.mark.parametrize(
    "family, overrides, message",
    SCENARIO_REJECTIONS,
    ids=[
        f"{f}-" + "-".join(f"{k}-{v}" for k, v in o.items())
        for f, o, _ in SCENARIO_REJECTIONS
    ],
)
def test_scenario_rejects_unrunnable_inputs(family, overrides, message):
    build = {"scale": _scale_scenario, "fabric": _fabric_scenario}[family]
    build()  # the unmodified scenario is valid
    with pytest.raises(ValueError, match=message):
        build(**overrides)


@pytest.mark.parametrize("horizon_s, window_s", [(4.0, INF), (4.0, NAN), (NAN, 2.0)])
def test_barrier_times_reject_non_finite_inputs(horizon_s, window_s):
    with pytest.raises(ValueError, match="must be positive and finite"):
        ShardPlan.build(2, 1).barrier_times(horizon_s, window_s)


class TestCrashValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            WorkerCrash(barrier_index=0, mode="segfault")

    def test_negative_barrier_rejected(self):
        with pytest.raises(ValueError, match="barrier"):
            WorkerCrash(barrier_index=-1)


class TestSerialExecutor:
    def test_raise_surfaces_with_worker_context(self):
        plan, tasks = _fabric_tasks(WorkerCrash(barrier_index=1))
        with pytest.raises(RuntimeError, match=r"worker 1 .*barrier"):
            run_shards_serial(tasks, _fabric_barriers(plan), _fabric_hub())

    def test_exit_is_contained_not_propagated(self):
        # SystemExit from a shard must not terminate the host process
        # (which would kill pytest itself); the serial executor converts
        # it to the same coordinator error the spawn path produces.
        plan, tasks = _fabric_tasks(WorkerCrash(barrier_index=0, mode="exit"))
        with pytest.raises(RuntimeError, match="worker 1"):
            run_shards_serial(tasks, _fabric_barriers(plan), _fabric_hub())

    def test_radio_shard_crash_surfaces_too(self):
        plan, tasks = _radio_tasks(WorkerCrash(barrier_index=0))
        with pytest.raises(RuntimeError, match="worker 1"):
            run_shards_serial(tasks, plan.barrier_times(4.0, 2.0))


class TestSpawnExecutor:
    def test_raise_ships_the_error_over_the_pipe(self):
        plan, tasks = _fabric_tasks(WorkerCrash(barrier_index=1))
        with pytest.raises(
            RuntimeError, match=r"worker 1 failed.*injected shard crash"
        ):
            run_shards_spawn(
                tasks, _fabric_barriers(plan), _fabric_hub(), timeout_s=60.0
            )

    def test_exit_closes_the_pipe_and_raises_cleanly(self):
        plan, tasks = _fabric_tasks(WorkerCrash(barrier_index=0, mode="exit"))
        with pytest.raises(RuntimeError, match=r"worker 1 died|worker 1"):
            run_shards_spawn(
                tasks, _fabric_barriers(plan), _fabric_hub(), timeout_s=60.0
            )

    def test_exit_before_reading_names_the_worker(self):
        # The worker dies while the coordinator's next message sits
        # unread in its end of the pipe: the coordinator's receive sees
        # the connection reset, not an EOF.
        population = _scale_task().population
        tasks = [
            _ExitingTask(population=population, seed=3, horizon_s=4.0,
                         window_s=2.0, cells=cells)
            for cells in ShardPlan.build(2, 2).assignments
        ]
        with pytest.raises(RuntimeError, match=r"shard worker 0 died"):
            run_shards_spawn(tasks, (2.0, 4.0), timeout_s=60.0)

    def test_radio_spawn_crash_does_not_hang(self):
        plan, tasks = _radio_tasks(WorkerCrash(barrier_index=0, mode="exit"))
        with pytest.raises(RuntimeError, match="worker 1"):
            run_shards_spawn(
                tasks, plan.barrier_times(4.0, 2.0), timeout_s=60.0
            )


class TestHealthyProtocol:
    def test_serial_and_spawn_agree_without_crashes(self):
        plan, tasks = _fabric_tasks(None)
        barriers = _fabric_barriers(plan)
        serial_hub, spawn_hub = _fabric_hub(), _fabric_hub()
        serial = run_shards_serial(tasks, barriers, serial_hub)
        spawned, timings = run_shards_spawn(tasks, barriers, spawn_hub)
        assert len(timings) == 2
        serial.sort(key=lambda r: r.cell_index)
        spawned.sort(key=lambda r: r.cell_index)
        assert [r.records for r in serial] == [r.records for r in spawned]
        assert serial_hub.records == spawn_hub.records
        assert serial_hub.delivered == N_SITES * 5

    def test_hubless_run_rejects_cross_shard_traffic(self):
        plan, tasks = _fabric_tasks(None)
        with pytest.raises(RuntimeError, match="without a hub"):
            run_shards_serial(tasks, _fabric_barriers(plan), hub=None)
