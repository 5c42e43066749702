"""Figure 7: OpenFOAM single-node runtime vs core count.

The paper runs the full CFD application (mesh generation included) on one
64-core node at core counts 1..64, 10 runs each, and plots mean total time
with +/- 2 SD whiskers; the 64-core mean is 420.39 s (SD 36.29 s).

The calibrated performance model regenerates it: it sweeps the
paper-scale core grid and must land on the anchor with the right curve
shape (monotone decrease, diminishing returns, paper-matching run-to-run
noise). A laptop cannot run the 64-core decomposition itself, so no
laptop solve stands in for it.
"""

import os

import numpy as np
import pytest

from repro.analysis import ComparisonTable, summarize, write_series_csv
from repro.cfd import (
    CfdPerformanceModel,
    FIG7_ANCHOR_MEAN_S,
    FIG7_ANCHOR_STD_S,
)

from benchmarks.conftest import run_once

CORE_GRID = (1, 2, 4, 8, 16, 32, 48, 64)
RUNS_PER_POINT = 10


def generate_figure7(seed: int = 2025):
    """core count -> SampleSummary of total application time (s)."""
    model = CfdPerformanceModel()
    rng = np.random.default_rng(seed)
    return {
        cores: summarize(model.sample_total_time(cores, rng, n=RUNS_PER_POINT))
        for cores in CORE_GRID
    }


def test_fig7_speedup_curve(benchmark):
    curve = run_once(benchmark, generate_figure7)

    table = ComparisonTable("Figure 7: full CFD runtime vs cores (s, 10 runs)")
    for cores, summary in sorted(curve.items()):
        lo, hi = summary.two_sigma_band()
        table.add(
            f"{cores:3d} cores",
            summary.mean,
            paper=FIG7_ANCHOR_MEAN_S if cores == 64 else None,
            unit=f"s  [{lo:7.1f}, {hi:7.1f}]",
        )
    table.print()

    artifacts = os.path.join(os.path.dirname(__file__), "_artifacts")
    write_series_csv(
        os.path.join(artifacts, "fig7_speedup.csv"),
        ["cores", "mean_s", "sd_s", "band_lo_s", "band_hi_s"],
        [
            [c, round(s.mean, 2), round(s.std, 2),
             round(s.two_sigma_band()[0], 2), round(s.two_sigma_band()[1], 2)]
            for c, s in sorted(curve.items())
        ],
    )

    means = [curve[c].mean for c in CORE_GRID]
    # Monotone decreasing with diminishing returns.
    assert means == sorted(means, reverse=True)
    gain_low = curve[1].mean - curve[4].mean
    gain_high = curve[16].mean - curve[64].mean
    assert gain_low > 5 * gain_high

    # The 64-core anchor: mean within 2 paper-SDs, SD within 3x.
    assert abs(curve[64].mean - FIG7_ANCHOR_MEAN_S) < 2 * FIG7_ANCHOR_STD_S
    assert curve[64].std < 3 * FIG7_ANCHOR_STD_S

    # Useful but sublinear speedup at 64 cores (mesh gen is serial).
    speedup = curve[1].mean / curve[64].mean
    assert 8 < speedup < 64


def test_fig7_model_consistent_with_artifact_appendix(benchmark):
    """The artifact appendix says the Fig. 7 campaign took ~13 h with no
    queueing. Its ``runme.sh -t=<threads>`` sweep at practical thread
    counts (4..64, 10 runs each) should land in the same regime."""

    def total_campaign_hours():
        model = CfdPerformanceModel()
        total_s = sum(
            model.total_time(cores, 1) * RUNS_PER_POINT
            for cores in CORE_GRID
            if cores >= 4
        )
        return total_s / 3600.0

    hours = run_once(benchmark, total_campaign_hours)
    # Paper: ~13 h; allow a factor-of-two band around it.
    assert 6.0 < hours < 30.0


@pytest.mark.smoke
def test_fig7_smoke_model_endpoints():
    """Smoke lane: two core counts, two runs each; more cores is faster."""
    model = CfdPerformanceModel()
    rng = np.random.default_rng(0)
    slow = summarize(model.sample_total_time(1, rng, n=2))
    fast = summarize(model.sample_total_time(64, rng, n=2))
    assert fast.mean < slow.mean
