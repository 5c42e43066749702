"""The scale scenario at its defaults: one shard, run in this process.

``ShardedScaleScenario(population, ...)`` without ``workers`` or
``executor`` is the single-process scale run; the cross-worker and
cross-executor invariants live in ``tests/parallel/``.
"""

from __future__ import annotations

import pytest

from repro.parallel import ParallelReport, ShardedScaleScenario
from repro.radio.population import Distribution, RandomVariable, UEPopulation


def _pop(n_cells: int = 3, mean_ues: float = 40.0) -> UEPopulation:
    return UEPopulation(
        n_cells=n_cells,
        ues_per_cell=RandomVariable(mean_ues, Distribution.POISSON),
        network="5g-tdd",
        bandwidth_mhz=40.0,
    )


def test_validation() -> None:
    with pytest.raises(ValueError):
        ShardedScaleScenario(_pop(), horizon_s=0.0)
    with pytest.raises(ValueError):
        ShardedScaleScenario(_pop(), window_s=0.0)
    with pytest.raises(ValueError):
        ShardedScaleScenario(_pop(), horizon_s=5.0, window_s=10.0)


def test_run_accounting() -> None:
    scenario = ShardedScaleScenario(_pop(), seed=5, horizon_s=30.0, window_s=10.0)
    assert (scenario.workers, scenario.executor) == (1, "serial")
    report = scenario.run()
    assert scenario.last_timings == []  # no worker process was spawned
    assert report.n_cells == 3
    assert report.total_ues == sum(report.per_cell_ues)
    assert report.events_processed == 3 * scenario.n_windows == 9
    # Every cell emits window_s samples per UE per window.
    assert report.samples_generated == report.total_ues * 30
    assert report.aggregate_mean_bps > 0.0


def test_same_seed_reports_identical() -> None:
    a = ShardedScaleScenario(_pop(), seed=12, horizon_s=20.0, window_s=5.0).run()
    b = ShardedScaleScenario(_pop(), seed=12, horizon_s=20.0, window_s=5.0).run()
    assert a == b  # frozen dataclass equality: bit-identical floats included


def test_different_seed_diverges() -> None:
    a = ShardedScaleScenario(_pop(), seed=1, horizon_s=20.0, window_s=10.0).run()
    b = ShardedScaleScenario(_pop(), seed=2, horizon_s=20.0, window_s=10.0).run()
    assert a.aggregate_mean_bps != b.aggregate_mean_bps


def test_report_json_shape() -> None:
    report = ShardedScaleScenario(_pop(2), seed=0, horizon_s=10.0, window_s=10.0).run()
    payload = report.to_json()
    assert payload["n_cells"] == 2
    assert payload["samples_generated"] == report.samples_generated
    assert payload["aggregate_mean_mbps"] == pytest.approx(
        report.aggregate_mean_bps / 1e6
    )
    assert isinstance(payload["per_cell_ues"], list)


def test_report_is_frozen() -> None:
    report = ShardedScaleScenario(_pop(1), seed=0, horizon_s=10.0, window_s=10.0).run()
    assert isinstance(report, ParallelReport)
    with pytest.raises(AttributeError):
        report.total_ues = 0  # type: ignore[misc]
