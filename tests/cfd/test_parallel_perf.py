"""Tests for the calibrated Figure 7 performance model."""

import numpy as np
import pytest

from repro.cfd import (
    CfdPerformanceModel,
    FIG7_ANCHOR_MEAN_S,
    FIG7_ANCHOR_STD_S,
)


class TestPerformanceModel:
    def test_fig7_anchor(self):
        pm = CfdPerformanceModel()
        assert pm.total_time(64, 1) == pytest.approx(FIG7_ANCHOR_MEAN_S, rel=0.02)

    def test_monotone_decreasing_on_single_node(self):
        pm = CfdPerformanceModel()
        times = [pm.total_time(c, 1) for c in (1, 2, 4, 8, 16, 32, 64)]
        assert times == sorted(times, reverse=True)

    def test_diminishing_returns(self):
        pm = CfdPerformanceModel()
        gain_low = pm.total_time(1, 1) - pm.total_time(4, 1)
        gain_high = pm.total_time(16, 1) - pm.total_time(64, 1)
        assert gain_low > 5 * gain_high

    def test_solver_fastest_on_two_nodes(self):
        # Section 4.4: "The OpenFOAM computation, itself, runs fastest on
        # 2 nodes, each with 64 cores."
        pm = CfdPerformanceModel()
        assert pm.best_node_count_for_solver() == 2
        assert pm.solve_time(128, 2) < pm.solve_time(64, 1)

    def test_total_application_fastest_on_one_node(self):
        # "the total application ... slows down ... when executed on more
        # than one node."
        pm = CfdPerformanceModel()
        assert pm.best_node_count_for_application() == 1
        assert pm.total_time(128, 2) > pm.total_time(64, 1)

    def test_noise_matches_paper_cv(self):
        pm = CfdPerformanceModel()
        rng = np.random.default_rng(5)
        samples = pm.sample_total_time(64, rng, n=4000)
        assert samples.mean() == pytest.approx(FIG7_ANCHOR_MEAN_S, rel=0.05)
        assert samples.std() == pytest.approx(FIG7_ANCHOR_STD_S, rel=0.25)

    def test_sustained_interval_roughly_seven_minutes(self):
        # Section 4.4: "one simulation produced approximately every
        # 7 minutes" on a dedicated 64-core machine.
        pm = CfdPerformanceModel()
        assert 6 * 60 <= pm.sustained_interval_s(64) <= 8 * 60

    def test_speedup_definition(self):
        pm = CfdPerformanceModel()
        assert pm.speedup(1) == 1.0
        assert pm.speedup(64) > 10.0

    def test_validation(self):
        pm = CfdPerformanceModel()
        with pytest.raises(ValueError):
            pm.total_time(0, 1)
        with pytest.raises(ValueError):
            pm.total_time(1, 2)  # fewer cores than nodes
        with pytest.raises(ValueError):
            pm.prepost_time(0)
        with pytest.raises(ValueError):
            CfdPerformanceModel(mesh_time_s=-1.0)
