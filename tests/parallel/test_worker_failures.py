"""The coordinator's failure surface: crashes become errors, never hangs.

Two injected failure modes (:class:`~repro.parallel.shard.WorkerCrash`):
``"raise"`` -- the worker raises mid-window and ships the error over the
pipe; ``"exit"`` -- the worker dies without a protocol reply
(``SystemExit`` is not an ``Exception``, so the worker loop cannot
convert it to an ``("error", ...)`` message and the coordinator sees the
pipe close). Both must surface as a clear ``RuntimeError`` naming the
worker, on both executors, within bounded time.
"""

import pytest

from repro.parallel import (
    CellFault,
    FabricBus,
    FabricShardTask,
    ScaleShardTask,
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


def _fabric_task(**overrides):
    """One shard of a 2-site fabric (site 0 unless overridden)."""
    fields = dict(n_cells=2, seed=3, horizon_s=4.0, window_s=2.0, cells=(0,))
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
    return plan.barrier_times(4.0, 2.0, 0.2)


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
    "non-positive window": ({"window_s": -1.0}, "window_s"),
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
        bus = FabricBus(plan, 4.0)
        with pytest.raises(RuntimeError, match=r"worker 1 .*barrier"):
            run_shards_serial(tasks, _fabric_barriers(plan), bus)

    def test_exit_is_contained_not_propagated(self):
        # SystemExit from a shard must not terminate the host process
        # (which would kill pytest itself); the serial executor converts
        # it to the same coordinator error the spawn path produces.
        plan, tasks = _fabric_tasks(WorkerCrash(barrier_index=0, mode="exit"))
        bus = FabricBus(plan, 4.0)
        with pytest.raises(RuntimeError, match="worker 1"):
            run_shards_serial(tasks, _fabric_barriers(plan), bus)

    def test_radio_shard_crash_surfaces_too(self):
        plan, tasks = _radio_tasks(WorkerCrash(barrier_index=0))
        with pytest.raises(RuntimeError, match="worker 1"):
            run_shards_serial(tasks, plan.barrier_times(4.0, 2.0, None))


class TestSpawnExecutor:
    def test_raise_ships_the_error_over_the_pipe(self):
        plan, tasks = _fabric_tasks(WorkerCrash(barrier_index=1))
        bus = FabricBus(plan, 4.0)
        with pytest.raises(
            RuntimeError, match=r"worker 1 failed.*injected shard crash"
        ):
            run_shards_spawn(
                tasks, _fabric_barriers(plan), bus, timeout_s=60.0
            )

    def test_exit_closes_the_pipe_and_raises_cleanly(self):
        plan, tasks = _fabric_tasks(WorkerCrash(barrier_index=0, mode="exit"))
        bus = FabricBus(plan, 4.0)
        with pytest.raises(RuntimeError, match=r"worker 1 died|worker 1"):
            run_shards_spawn(
                tasks, _fabric_barriers(plan), bus, timeout_s=60.0
            )

    def test_radio_spawn_crash_does_not_hang(self):
        plan, tasks = _radio_tasks(WorkerCrash(barrier_index=0, mode="exit"))
        with pytest.raises(RuntimeError, match="worker 1"):
            run_shards_spawn(
                tasks, plan.barrier_times(4.0, 2.0, None), timeout_s=60.0
            )


class TestHealthyProtocol:
    def test_serial_and_spawn_agree_without_crashes(self):
        plan, tasks = _fabric_tasks(None)
        barriers = _fabric_barriers(plan)
        serial = run_shards_serial(tasks, barriers, FabricBus(plan, 4.0))
        spawned, timings = run_shards_spawn(
            tasks, barriers, FabricBus(plan, 4.0)
        )
        assert len(timings) == 2
        serial.sort(key=lambda r: r.cell_index)
        spawned.sort(key=lambda r: r.cell_index)
        assert [r.records for r in serial] == [r.records for r in spawned]

    def test_busless_run_rejects_cross_shard_traffic(self):
        plan, tasks = _fabric_tasks(None)
        with pytest.raises(RuntimeError, match="without a fabric bus"):
            run_shards_serial(tasks, _fabric_barriers(plan), bus=None)
