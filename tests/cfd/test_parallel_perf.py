"""Tests for domain decomposition and the calibrated performance model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd import (
    BoundaryConditions,
    CfdPerformanceModel,
    DecomposedSolver,
    FIG7_ANCHOR_MEAN_S,
    FIG7_ANCHOR_STD_S,
    LaptopKernelModel,
    ProjectionSolver,
    SolverConfig,
    WindInlet,
    decompose_slabs,
)
from repro.cfd.boundary import cups_screen_walls
from repro.cfd.mesh import default_mesh


class TestDecomposeSlabs:
    def test_even_split(self):
        assert decompose_slabs(20, 4) == [(0, 5), (5, 10), (10, 15), (15, 20)]

    def test_uneven_split_covers_everything(self):
        slabs = decompose_slabs(10, 3)
        assert slabs[0][0] == 0 and slabs[-1][1] == 10
        for (s0, e0), (s1, _) in zip(slabs, slabs[1:]):
            assert e0 == s1
        sizes = [e - s for s, e in slabs]
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            decompose_slabs(10, 0)
        with pytest.raises(ValueError):
            decompose_slabs(4, 5)


@settings(max_examples=30, deadline=None)
@given(
    nx=st.integers(min_value=3, max_value=64),
    ranks=st.integers(min_value=1, max_value=16),
)
def test_decompose_property(nx, ranks):
    if ranks > nx:
        ranks = nx
    slabs = decompose_slabs(nx, ranks)
    assert len(slabs) == ranks
    assert sum(e - s for s, e in slabs) == nx
    assert all(e > s for s, e in slabs)


class TestDecomposedEqualsSerial:
    def _cfg(self):
        return SolverConfig(dt=0.05, n_steps=12, poisson_iterations=40)

    def _bcs(self, mesh):
        return BoundaryConditions(
            inlet=WindInlet(speed_mps=3.0), screens=cups_screen_walls(mesh)
        )

    @pytest.mark.parametrize("ranks", [1, 2, 3, 4, 7])
    def test_bit_identical_across_rank_counts(self, ranks):
        mesh = default_mesh()
        bcs = self._bcs(mesh)
        serial = ProjectionSolver(mesh, bcs, self._cfg()).solve()
        decomposed = DecomposedSolver(mesh, bcs, self._cfg(), n_ranks=ranks).solve()
        assert decomposed.fields.allclose(serial.fields, atol=0.0)

    def test_halo_exchanges_counted(self):
        mesh = default_mesh()
        d = DecomposedSolver(mesh, self._bcs(mesh), self._cfg(), n_ranks=2)
        d.solve()
        # Per step: 1 (predictor) + poisson_iterations + 1 (corrector) + 1 (T).
        expected = 12 * (1 + 40 + 1 + 1)
        assert d.halo_exchanges == expected


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


class TestLaptopKernelModel:
    def test_step_time_scales_with_cells(self):
        km = LaptopKernelModel()
        n = default_mesh().n_cells
        assert km.step_time_s(8 * n) == pytest.approx(8 * km.step_time_s(n))
        assert km.solve_time_s(n, 100) == pytest.approx(100 * km.step_time_s(n))

    def test_poisson_dominates_the_step(self):
        # With 60 fixed sweeps the pressure loop is the serial fraction
        # pressure-solver work acts on: more than half the step.
        km = LaptopKernelModel()
        assert 0.5 < km.poisson_fraction() <= 1.0

    def test_fewer_sweeps_smaller_fraction(self):
        assert (
            LaptopKernelModel(poisson_iterations=20).poisson_fraction()
            < LaptopKernelModel(poisson_iterations=60).poisson_fraction()
        )

    def test_sweeps_budget(self):
        km = LaptopKernelModel()
        n = default_mesh().n_cells
        # The default step fits its own budget with the default sweeps.
        assert km.sweeps_budget(km.step_time_s(n), n) >= km.poisson_iterations - 1
        # An impossible budget yields zero sweeps.
        assert km.sweeps_budget(1e-9, n) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LaptopKernelModel(step_cells_per_s=0.0)
        with pytest.raises(ValueError):
            LaptopKernelModel(poisson_iterations=0)
        km = LaptopKernelModel()
        with pytest.raises(ValueError):
            km.step_time_s(0)
        with pytest.raises(ValueError):
            km.solve_time_s(100, 0)
        with pytest.raises(ValueError):
            km.sweeps_budget(0.0, 100)
