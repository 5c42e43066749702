"""Sharded-scenario benchmarks: the 100k-UE campaign, serial vs spawn.

Records in ``BENCH_parallel.json`` (canonical copy in ``_artifacts/``,
root mirror kept by ``sync_artifacts``):

* ``parallel_serial_100k`` -- the single-process baseline wall;
* ``parallel_spawn4_100k`` -- the 4-worker spawn run, its measured wall,
  and the **modeled** speedup.

Speedup accounting is honest about the host: per-worker compute walls are
measured by driving each worker's shard *alone* (no contention, public
``ShardRunner`` API), and the modeled speedup is
``sum(worker walls) / max(worker walls)`` -- what perfect overlap buys on
a machine with >= 4 free cores. The *measured* wall-clock ratio is also
recorded, but only asserted when the host actually has >= 4 cores: a
1-core CI container timesharing 4 spawned workers cannot impersonate a
4-core node, exactly as the CFD perf model does not ask a laptop to
impersonate a cluster node. Byte-identity between the serial and spawn
reports is asserted unconditionally -- determinism has no hardware
excuse.
"""

import json
import os
import time

import pytest

from repro.analysis import ComparisonTable
from repro.parallel import ShardedScaleScenario
from repro.radio.population import Distribution, RandomVariable, UEPopulation

ARTIFACT = os.path.join(
    os.path.dirname(__file__), "_artifacts", "BENCH_parallel.json"
)

#: The ISSUE acceptance floor: modeled 4-worker speedup on the 100k-UE
#: campaign must clear this.
MIN_MODELED_SPEEDUP = 2.5

N_CELLS = 20
UES_PER_CELL = 5_000.0
HORIZON_S = 20.0
WINDOW_S = 10.0
WORKERS = 4


def _write_records(new_records: list[dict]) -> None:
    """Merge records into the artifact, replacing same-name benchmarks."""
    os.makedirs(os.path.dirname(ARTIFACT), exist_ok=True)
    names = {r["benchmark"] for r in new_records}
    existing = []
    if os.path.exists(ARTIFACT):
        with open(ARTIFACT) as fh:
            existing = [r for r in json.load(fh) if r.get("benchmark") not in names]
    with open(ARTIFACT, "w") as fh:
        json.dump(existing + new_records, fh, indent=2)
    from benchmarks.sync_artifacts import sync

    sync()


def _campaign(n_cells=N_CELLS, ues_per_cell=UES_PER_CELL):
    """The multi-farm campaign population: one cell per farm site."""
    return UEPopulation(
        n_cells=n_cells,
        ues_per_cell=RandomVariable(ues_per_cell, Distribution.POISSON),
        network="5g-tdd",
        bandwidth_mhz=40.0,
    )


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def _modeled_worker_walls(scenario: ShardedScaleScenario) -> list[float]:
    """Per-worker compute wall, each worker's shard driven alone.

    Contention-free measurement of the work a worker would own; perfect
    overlap across workers is then ``max(walls)`` instead of ``sum``.
    """
    walls = []
    for task in scenario._tasks():
        t0 = time.perf_counter()
        runner = task.build_runner()
        for barrier_t in scenario._barriers():
            runner.advance(barrier_t)
        runner.finish()
        walls.append(time.perf_counter() - t0)
    return walls


def test_parallel_100k_campaign(benchmark):
    """The acceptance run: 100k UEs, 20 farms, 4 workers."""
    records = []

    def run_all():
        population = _campaign()
        serial = ShardedScaleScenario(
            population=population, seed=2025, horizon_s=HORIZON_S,
            window_s=WINDOW_S, workers=1, executor="serial",
        )
        t0 = time.perf_counter()
        serial_report = serial.run()
        serial_wall = time.perf_counter() - t0

        spawn = ShardedScaleScenario(
            population=population, seed=2025, horizon_s=HORIZON_S,
            window_s=WINDOW_S, workers=WORKERS, executor="spawn",
        )
        t0 = time.perf_counter()
        spawn_report = spawn.run()
        spawn_wall = time.perf_counter() - t0

        assert spawn_report.canonical_json() == serial_report.canonical_json()

        walls = _modeled_worker_walls(
            ShardedScaleScenario(
                population=population, seed=2025, horizon_s=HORIZON_S,
                window_s=WINDOW_S, workers=WORKERS, executor="serial",
            )
        )
        modeled_speedup = sum(walls) / max(walls)
        cores = _cores()
        records.extend([
            {
                "benchmark": "parallel_serial_100k",
                "n_cells": serial_report.n_cells,
                "total_ues": serial_report.total_ues,
                "samples_generated": serial_report.samples_generated,
                "wall_s": serial_wall,
                "digest": serial_report.digest,
                "host_cores": cores,
            },
            {
                "benchmark": "parallel_spawn4_100k",
                "workers": WORKERS,
                "n_cells": spawn_report.n_cells,
                "total_ues": spawn_report.total_ues,
                "wall_s": spawn_wall,
                "digest": spawn_report.digest,
                "measured_speedup": serial_wall / spawn_wall,
                "modeled_speedup": modeled_speedup,
                "worker_compute_walls_s": walls,
                "host_cores": cores,
                "note": (
                    "modeled = sum(worker walls)/max(worker walls), each "
                    "shard timed alone; measured speedup is only meaningful "
                    "on hosts with >= 4 free cores"
                ),
            },
        ])
        return records

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    by_name = {r["benchmark"]: r for r in records}
    spawn_rec = by_name["parallel_spawn4_100k"]
    table = ComparisonTable("Sharded 100k-UE campaign (20 farms)")
    table.add("serial wall", by_name["parallel_serial_100k"]["wall_s"], unit="s")
    table.add("spawn(4) wall", spawn_rec["wall_s"], unit="s")
    table.add("measured speedup", spawn_rec["measured_speedup"], unit="x")
    table.add("modeled speedup", spawn_rec["modeled_speedup"], unit="x")
    table.add("host cores", float(spawn_rec["host_cores"]), unit="cores")
    table.print()

    _write_records(records)

    assert spawn_rec["digest"] == by_name["parallel_serial_100k"]["digest"]
    assert spawn_rec["modeled_speedup"] >= MIN_MODELED_SPEEDUP, (
        f"modeled 4-worker speedup {spawn_rec['modeled_speedup']:.2f}x is "
        f"below the {MIN_MODELED_SPEEDUP}x floor: shard load is imbalanced"
    )
    if spawn_rec["host_cores"] >= WORKERS:
        assert spawn_rec["measured_speedup"] >= MIN_MODELED_SPEEDUP, (
            f"host has {spawn_rec['host_cores']} cores but spawn(4) only "
            f"achieved {spawn_rec['measured_speedup']:.2f}x"
        )


@pytest.mark.smoke
def test_parallel_smoke_small(benchmark):
    """CI smoke lane: tiny campaign, spawn(2) must match serial bytes."""
    result = {}

    def run():
        population = _campaign(n_cells=6, ues_per_cell=50.0)
        serial = ShardedScaleScenario(
            population=population, seed=1, horizon_s=20.0, window_s=10.0,
            workers=1, executor="serial",
        )
        serial_report = serial.run()
        spawn = ShardedScaleScenario(
            population=population, seed=1, horizon_s=20.0, window_s=10.0,
            workers=2, executor="spawn",
        )
        t0 = time.perf_counter()
        spawn_report = spawn.run()
        wall = time.perf_counter() - t0
        assert spawn_report.digest == serial_report.digest
        result.update({
            "benchmark": "parallel_smoke",
            "workers": 2,
            "n_cells": spawn_report.n_cells,
            "total_ues": spawn_report.total_ues,
            "samples_generated": spawn_report.samples_generated,
            "wall_s": wall,
            "digest": spawn_report.digest,
            "host_cores": _cores(),
        })
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = ComparisonTable("Parallel smoke (6 farms, spawn x2)")
    table.add("total UEs", float(result["total_ues"]), unit="UEs")
    table.add("spawn wall", result["wall_s"], unit="s")
    table.print()

    _write_records([result])

    assert result["samples_generated"] == result["total_ues"] * 20
