"""Tests for the projection solver: stability, mass conservation, physics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd import (
    BoundaryConditions,
    FlowFields,
    ProjectionSolver,
    SolverConfig,
    WindInlet,
)
from repro.cfd.boundary import cups_screen_walls
from repro.cfd.mesh import StructuredMesh, default_mesh


def build_solver(wind=3.0, n_steps=60, poisson=30, screens=True, mesh=None):
    m = mesh if mesh is not None else default_mesh()
    bcs = BoundaryConditions(
        inlet=WindInlet(speed_mps=wind),
        screens=cups_screen_walls(m) if screens else [],
    )
    return ProjectionSolver(m, bcs, SolverConfig(dt=0.05, n_steps=n_steps, poisson_iterations=poisson))


class TestConfigValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0)
        with pytest.raises(ValueError):
            SolverConfig(n_steps=0)
        with pytest.raises(ValueError):
            SolverConfig(poisson_iterations=0)

    @pytest.mark.parametrize("field", ["dt", "n_steps", "poisson_iterations"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverConfig(**{field: value})

    def test_stable_dt_positive_and_conservative(self):
        s = build_solver()
        assert 0 < s.max_stable_dt() < 10.0
        assert s.max_stable_dt(safety=0.25) == pytest.approx(s.max_stable_dt(0.5) / 2)


class TestSingleStep:
    def test_projection_reduces_divergence(self):
        """The corrector must shrink the predictor's divergence."""
        s = build_solver()
        f = FlowFields(s.mesh).initialize_uniform()
        # Run a few steps to build structure, then measure one step closely.
        for _ in range(5):
            s.step(f)
        # Manually run the predictor only by copying and stepping with zero
        # Poisson sweeps is invasive; instead verify the post-step
        # divergence stays small relative to the velocity scale U/dx.
        s.step(f)
        scale = max(float(f.speed().max()), 1.0) / min(s.mesh.dx, s.mesh.dz)
        assert s.divergence_norm(f) < 0.1 * scale

    def test_inlet_velocity_enforced(self):
        s = build_solver(wind=3.0)
        f = FlowFields(s.mesh).initialize_uniform()
        s.step(f)
        _, _, z = s.mesh.cell_centers()
        expected = s.bcs.inlet.profile(z)
        # k = 0 is the ground no-slip corner, which wins over the inlet.
        assert np.allclose(f.u[0, 5, 1:], expected[1:])
        assert np.allclose(f.w[0, :, :], 0.0)

    def test_ground_no_slip(self):
        s = build_solver()
        f = FlowFields(s.mesh).initialize_uniform(u=2.0)
        s.step(f)
        assert np.all(f.u[:, :, 0] == 0.0)
        assert np.all(f.w[:, :, 0] == 0.0)

    def test_ground_temperature_dirichlet(self):
        s = build_solver()
        f = FlowFields(s.mesh).initialize_uniform()
        s.step(f)
        assert np.allclose(f.temperature[:, :, 0], s.bcs.ground_temperature_k)


class TestFullSolve:
    @pytest.mark.slow
    def test_stable_over_long_run(self):
        result = build_solver(n_steps=250).solve()
        f = result.fields
        assert np.all(np.isfinite(f.u))
        # Kinetic energy is bounded (no secular growth after spin-up).
        ke = result.kinetic_energy_history
        assert max(ke[-50:]) < 3.0 * max(ke[: len(ke) // 2]) + 1.0

    @pytest.mark.slow
    def test_screen_slows_interior_air(self):
        """The CUPS premise: interior conditions differ from exterior."""
        with_screen = build_solver(n_steps=200, screens=True).solve().fields
        without = build_solver(n_steps=200, screens=False).solve().fields
        sel = np.s_[6:22, 6:22, 0:3]  # inside the screen house, below 7.5 m
        assert with_screen.speed()[sel].mean() < 0.8 * without.speed()[sel].mean()

    @pytest.mark.slow
    def test_breach_changes_local_flow(self):
        """A breach must be observable -- the digital-twin requirement."""
        m = default_mesh()
        bcs = BoundaryConditions(inlet=WindInlet(3.0), screens=cups_screen_walls(m))
        cfg = SolverConfig(dt=0.05, n_steps=200, poisson_iterations=40)
        intact = ProjectionSolver(m, bcs, cfg).solve().fields
        breached = ProjectionSolver(m, bcs.breach_any(0), cfg).solve().fields
        sel = np.s_[4:9, 4:24, 0:4]  # region just inside the upwind wall
        delta = np.abs(breached.speed()[sel] - intact.speed()[sel]).max()
        assert delta > 0.3  # m/s: well above numerical noise

    @pytest.mark.slow
    def test_buoyancy_lifts_warm_air(self):
        """Hot ground with no wind drives an upward plume."""
        m = default_mesh()
        bcs = BoundaryConditions(
            inlet=WindInlet(speed_mps=0.0),
            screens=[],
            interior_temperature_k=293.15,
            ground_temperature_k=313.15,
        )
        cfg = SolverConfig(dt=0.05, n_steps=150, poisson_iterations=30)
        f = ProjectionSolver(m, bcs, cfg).solve().fields
        # Mean vertical velocity above the ground layer is positive.
        assert f.w[3:-3, 3:-3, 1:5].mean() > 0.0

    def test_zero_wind_no_heating_stays_at_rest(self):
        m = default_mesh()
        bcs = BoundaryConditions(
            inlet=WindInlet(speed_mps=0.0),
            screens=[],
            interior_temperature_k=293.15,
            ground_temperature_k=293.15,
        )
        cfg = SolverConfig(dt=0.05, n_steps=30, poisson_iterations=20)
        f = ProjectionSolver(m, bcs, cfg).solve().fields
        assert float(f.speed().max()) < 1e-8

    @pytest.mark.slow
    def test_stronger_wind_more_interior_flow(self):
        weak = build_solver(wind=1.0, n_steps=150).solve().fields
        strong = build_solver(wind=6.0, n_steps=150).solve().fields
        sel = np.s_[6:22, 6:22, 0:3]
        assert strong.speed()[sel].mean() > weak.speed()[sel].mean()

    def test_divergence_history_recorded(self):
        result = build_solver(n_steps=10).solve()
        assert len(result.divergence_history) == 10
        assert result.steps_run == 10
        assert result.final_divergence == result.divergence_history[-1]


@settings(max_examples=10, deadline=None)
@given(
    wind=st.floats(min_value=0.5, max_value=8.0),
    direction=st.floats(min_value=-45.0, max_value=45.0),
)
def test_solver_bounded_property(wind, direction):
    """For any plausible telemetry, a short solve stays finite and the
    velocity scale stays within a physical multiple of the inlet speed."""
    m = StructuredMesh(12, 12, 6)
    bcs = BoundaryConditions(
        inlet=WindInlet(speed_mps=wind, direction_deg=direction),
        screens=cups_screen_walls(m),
    )
    cfg = SolverConfig(dt=0.04, n_steps=40, poisson_iterations=20)
    result = ProjectionSolver(m, bcs, cfg).solve()
    speed = result.fields.speed()
    assert np.all(np.isfinite(speed))
    assert float(speed.max()) < 20.0 * max(wind, 1.0)
