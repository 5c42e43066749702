"""Million-UE scale-path benchmarks: radio kernel rate, engine storm rate.

This is the perf gate for the vectorized radio/MAC hot loops and the
calendar-queue engine. It measures, and records in ``BENCH_scale.json``
(schema: one record per measurement with ``{benchmark, ...rates}``):

* ``radio_scalar`` / ``radio_vectorized`` -- UE-samples/sec through the
  retired per-UE loop vs the state-array kernel on the *same* 10k-UE cell
  (the ISSUE acceptance floor: >= 10x);
* ``engine_storm`` / ``engine_storm_flat_heap`` /
  ``engine_storm_flat_engine`` -- events/sec draining same-timestamp
  storms through the calendar queue, through a raw ``(time, eid)`` heapq
  that runs no Event machinery, and through the flat-heap engine of
  ``tests/simkernel/test_engine_batched.py``, which runs the same Event
  code as the calendar queue;
* ``scale_scenario`` -- sim-seconds per wall-second and events/sec for a
  50k-UE, 20-cell :class:`~repro.parallel.ShardedScaleScenario` on one
  in-process worker (``workers=1, executor="serial"``), per-cell
  throughput sketches included: the median of ``n`` runs, each on a
  freshly built scenario.

Every record carries ``host_cores``. Every full run overwrites the
artifact; the smoke test refreshes only its own records so the CI
artifact stays honest without the heavy runs.
"""

import heapq
import json
import os
import statistics
import time
from itertools import count

import numpy as np
import pytest

from repro.analysis import ComparisonTable
from repro.parallel import ShardedScaleScenario
from repro.radio.population import Distribution, RandomVariable, UEPopulation
from repro.simkernel.engine import Engine
from repro.simkernel.rng import RngRegistry
from tests.radio.scalar_reference import uplink_samples_scalar
from tests.simkernel.test_engine_batched import FlatHeapEngine

ARTIFACT = os.path.join(os.path.dirname(__file__), "_artifacts", "BENCH_scale.json")

#: The ISSUE acceptance floor: vectorized UE-samples/sec >= 10x scalar.
MIN_SPEEDUP = 10.0

N_UES = 10_000
SCALAR_SAMPLES = 4
VECTOR_SAMPLES = 50

#: Engine storm shape: STORM_TIMES distinct timestamps x STORM_WIDTH events.
STORM_TIMES = 64
STORM_WIDTH = 1_500

#: Fresh-scenario runs behind each scenario record. One run spread from
#: 280 to 466 sim-s/wall-s on the same code on a 2-core host, so a record
#: is the median of several, with their count.
SCENARIO_RUNS = 5


def _write_records(new_records: list[dict]) -> None:
    """Merge records into the artifact, replacing same-name benchmarks."""
    os.makedirs(os.path.dirname(ARTIFACT), exist_ok=True)
    for record in new_records:
        record["host_cores"] = os.cpu_count()
    names = {r["benchmark"] for r in new_records}
    existing = []
    if os.path.exists(ARTIFACT):
        with open(ARTIFACT) as fh:
            existing = [r for r in json.load(fh) if r.get("benchmark") not in names]
    with open(ARTIFACT, "w") as fh:
        json.dump(existing + new_records, fh, indent=2)


def _ten_k_cell():
    pop = UEPopulation(
        n_cells=1,
        ues_per_cell=RandomVariable(float(N_UES), Distribution.CONSTANT),
        network="5g-tdd",
        bandwidth_mhz=40.0,
    )
    return pop.realize_cells(RngRegistry(2025), [0])[0]


def _radio_rates() -> list[dict]:
    """UE-samples/sec: scalar reference loop vs vectorized kernel, 10k UEs."""
    from repro.radio.gnb import GNodeB

    cell = _ten_k_cell()
    gnb = GNodeB("bench-10k", cell.carrier, sdr=cell.sdr)
    for ue in cell.materialize():
        gnb.attach(ue)

    rng = np.random.default_rng(7)
    gnb.uplink_samples(rng, 2)  # warm-up: rate table, scheduler state
    t0 = time.perf_counter()
    gnb.uplink_samples(rng, VECTOR_SAMPLES)
    vec_wall = time.perf_counter() - t0
    vec_rate = N_UES * VECTOR_SAMPLES / vec_wall

    t0 = time.perf_counter()
    uplink_samples_scalar(gnb, rng, SCALAR_SAMPLES)
    scalar_wall = time.perf_counter() - t0
    scalar_rate = N_UES * SCALAR_SAMPLES / scalar_wall

    return [
        {
            "benchmark": "radio_scalar",
            "n_ues": N_UES,
            "n_samples": SCALAR_SAMPLES,
            "ue_samples_per_sec": scalar_rate,
            "wall_s": scalar_wall,
        },
        {
            "benchmark": "radio_vectorized",
            "n_ues": N_UES,
            "n_samples": VECTOR_SAMPLES,
            "ue_samples_per_sec": vec_rate,
            "wall_s": vec_wall,
            "speedup_vs_scalar": vec_rate / scalar_rate,
        },
    ]


def _drain_engine(engine: Engine | FlatHeapEngine) -> float:
    """Wall seconds to schedule + drain the storm through ``engine``."""
    sink: list[float] = []
    cb = lambda _e: sink.append(engine.now)  # noqa: E731
    t0 = time.perf_counter()
    for t in range(STORM_TIMES):
        for _ in range(STORM_WIDTH):
            engine.timeout(float(t)).add_callback(cb)
    engine.run()
    wall = time.perf_counter() - t0
    assert len(sink) == STORM_TIMES * STORM_WIDTH
    return wall


def _drain_flat_heap() -> float:
    """The same storm through a raw ``(time, eid, payload)`` heapq."""
    queue: list[tuple[float, int, object]] = []
    eid = count()
    sink: list[float] = []
    t0 = time.perf_counter()
    for t in range(STORM_TIMES):
        for _ in range(STORM_WIDTH):
            heapq.heappush(queue, (float(t), next(eid), sink.append))
    while queue:
        when, _, fn = heapq.heappop(queue)
        fn(when)
    wall = time.perf_counter() - t0
    assert len(sink) == STORM_TIMES * STORM_WIDTH
    return wall


def _engine_rates() -> list[dict]:
    n_events = STORM_TIMES * STORM_WIDTH
    _drain_engine(Engine(seed=0))  # warm-up
    calendar = min(_drain_engine(Engine(seed=0)) for _ in range(3))
    flat = min(_drain_flat_heap() for _ in range(3))
    flat_engine = min(_drain_engine(FlatHeapEngine()) for _ in range(3))
    return [
        {
            "benchmark": "engine_storm",
            "n_events": n_events,
            "distinct_timestamps": STORM_TIMES,
            "events_per_sec": n_events / calendar,
            "wall_s": calendar,
        },
        {
            "benchmark": "engine_storm_flat_heap",
            "n_events": n_events,
            "distinct_timestamps": STORM_TIMES,
            "events_per_sec": n_events / flat,
            "wall_s": flat,
            "note": "raw heapq push/pop, no Event machinery",
        },
        {
            "benchmark": "engine_storm_flat_engine",
            "n_events": n_events,
            "distinct_timestamps": STORM_TIMES,
            "events_per_sec": n_events / flat_engine,
            "wall_s": flat_engine,
            "note": "one flat (time, eid, event) heap, same Event code",
        },
    ]


def _scenario_rate(n_cells: int, ues_per_cell: float, horizon_s: float) -> dict:
    """The scenario's rates at the median wall time of SCENARIO_RUNS runs,
    each building its population and scenario afresh (same seed, so every
    run's report is the same)."""
    walls = []
    for _ in range(SCENARIO_RUNS):
        pop = UEPopulation(
            n_cells=n_cells,
            ues_per_cell=RandomVariable(ues_per_cell, Distribution.POISSON),
            network="5g-tdd",
            bandwidth_mhz=40.0,
        )
        scenario = ShardedScaleScenario(
            pop, seed=2025, horizon_s=horizon_s, window_s=10.0,
            workers=1, executor="serial",
        )
        t0 = time.perf_counter()
        report = scenario.run()
        walls.append(time.perf_counter() - t0)
    wall = statistics.median(walls)
    return {
        "benchmark": "scale_scenario",
        "n_cells": report.n_cells,
        "total_ues": report.total_ues,
        "sim_seconds": report.sim_seconds,
        "events_processed": report.events_processed,
        "samples_generated": report.samples_generated,
        "events_per_sec": report.events_processed / wall,
        "ue_samples_per_sec": report.samples_generated / wall,
        "sim_s_per_wall_s": report.sim_seconds / wall,
        "wall_s": wall,
        "n": SCENARIO_RUNS,
    }


def test_scale_throughput(benchmark):
    records = []

    def run_all():
        records.extend(_radio_rates())
        records.extend(_engine_rates())
        records.append(_scenario_rate(n_cells=20, ues_per_cell=2_500.0,
                                      horizon_s=60.0))
        return records

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    by_name = {r["benchmark"]: r for r in records}
    table = ComparisonTable("Scale path (10k-UE cell, 50k-UE scenario)")
    table.add("radio scalar", by_name["radio_scalar"]["ue_samples_per_sec"],
              unit="UE-samples/s")
    table.add("radio vectorized",
              by_name["radio_vectorized"]["ue_samples_per_sec"],
              unit="UE-samples/s")
    table.add("radio speedup",
              by_name["radio_vectorized"]["speedup_vs_scalar"], unit="x")
    table.add("engine storm", by_name["engine_storm"]["events_per_sec"],
              unit="events/s")
    table.add("raw heapq", by_name["engine_storm_flat_heap"]["events_per_sec"],
              unit="events/s")
    table.add("flat-heap engine",
              by_name["engine_storm_flat_engine"]["events_per_sec"],
              unit="events/s")
    table.add("50k-UE scenario", by_name["scale_scenario"]["sim_s_per_wall_s"],
              unit="sim-s/wall-s")
    table.print()

    _write_records(records)

    speedup = by_name["radio_vectorized"]["speedup_vs_scalar"]
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized radio path is only {speedup:.1f}x the per-UE loop at "
        f"{N_UES} UEs (floor {MIN_SPEEDUP}x)"
    )
    # The calendar queue must at least keep pace with half a *bare* heapq
    # (which runs no Event machinery at all) on storm workloads, and with a
    # flat heap that runs the same Event code.
    assert (
        by_name["engine_storm"]["events_per_sec"]
        > 0.5 * by_name["engine_storm_flat_heap"]["events_per_sec"]
    )
    assert (
        by_name["engine_storm"]["events_per_sec"]
        >= by_name["engine_storm_flat_engine"]["events_per_sec"]
    )
    assert by_name["scale_scenario"]["sim_s_per_wall_s"] > 1.0


@pytest.mark.smoke
def test_scale_smoke_small(benchmark):
    """Tiny configuration for the CI smoke lane: same measurements, small N,
    refreshing only its own records in ``BENCH_scale.json``."""
    result = {}

    def run():
        pop = UEPopulation(
            n_cells=4,
            ues_per_cell=RandomVariable(100.0, Distribution.POISSON),
            network="5g-tdd",
            bandwidth_mhz=40.0,
        )
        scenario = ShardedScaleScenario(
            pop, seed=1, horizon_s=30.0, window_s=10.0,
            workers=1, executor="serial",
        )
        t0 = time.perf_counter()
        report = scenario.run()
        wall = time.perf_counter() - t0
        result.update({
            "benchmark": "scale_scenario_smoke",
            "n_cells": report.n_cells,
            "total_ues": report.total_ues,
            "events_processed": report.events_processed,
            "samples_generated": report.samples_generated,
            "sim_s_per_wall_s": report.sim_seconds / wall,
            "wall_s": wall,
        })
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = ComparisonTable("Scale smoke (4 cells, ~400 UEs)")
    table.add("total UEs", float(result["total_ues"]), unit="UEs")
    table.add("sim rate", result["sim_s_per_wall_s"], unit="sim-s/wall-s")
    table.print()

    _write_records([result])

    assert result["events_processed"] == 12
    assert result["sim_s_per_wall_s"] > 1.0


@pytest.mark.slow
def test_scale_100k_completes(benchmark):
    """The 100k-UE scenario completes in the slow lane with exact
    event/sample accounting."""
    result = {}

    def run():
        record = _scenario_rate(n_cells=20, ues_per_cell=5_000.0, horizon_s=20.0)
        record["benchmark"] = "scale_scenario_100k"
        result.update(record)
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = ComparisonTable("100k-UE scenario")
    table.add("total UEs", float(result["total_ues"]), unit="UEs")
    table.add("UE-samples", result["ue_samples_per_sec"], unit="samples/s")
    table.add("sim rate", result["sim_s_per_wall_s"], unit="sim-s/wall-s")
    table.print()

    _write_records([result])

    assert result["total_ues"] > 90_000
    assert result["events_processed"] == 40  # 20 cells x 2 windows
    assert result["samples_generated"] == result["total_ues"] * 20
