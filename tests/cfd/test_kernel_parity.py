"""Parity and regression tests for the allocation-free kernel rewrite.

The buffered row-ranged kernels must reproduce the seed ``np.pad``-based
kernels **bit for bit** in Jacobi mode -- same operands, same IEEE
operation order. The reference implementation below is the seed time step
verbatim, built on the retained reference kernels (``_pad``, ``_lap``,
...), so any drift in the rewrite shows up as an exact-equality failure
here rather than as a slow physics regression elsewhere.
"""

import numpy as np
import pytest

from repro.cfd import (
    BoundaryConditions,
    DecomposedSolver,
    FlowFields,
    PaddedScratch,
    ProjectionSolver,
    SolverConfig,
    StructuredMesh,
    WindInlet,
)
from repro.cfd.boundary import (
    SCREEN_DARCY,
    SCREEN_FORCHHEIMER,
    cups_screen_walls,
)
from repro.cfd.mesh import default_mesh
from repro.cfd.solver import (
    ALPHA_EFFECTIVE,
    BETA_AIR,
    GRAVITY,
    NU_AIR,
    NU_EFFECTIVE,
    _grad,
    _lap,
    _pad,
    _pad_pressure,
    _porous_coeffs,
    _upwind_advect,
    nonfinite_fields,
)

FIELDS = ("u", "v", "w", "p", "temperature")


def build_case(**config_kwargs):
    mesh = default_mesh()
    bcs = BoundaryConditions(
        inlet=WindInlet(speed_mps=3.0, direction_deg=15.0, temperature_k=291.0),
        screens=cups_screen_walls(mesh),
        ground_temperature_k=299.0,
    )
    cfg = SolverConfig(dt=0.02, n_steps=8, poisson_iterations=20, **config_kwargs)
    return mesh, bcs, cfg


def reference_step(solver: ProjectionSolver, f: FlowFields) -> None:
    """The seed projection step, verbatim, on the reference kernels."""
    m, cfg = solver.mesh, solver.config
    dt, dx, dy, dz = cfg.dt, m.dx, m.dy, m.dz
    solver.apply_velocity_bcs(f)
    solver.apply_temperature_bcs(f)

    up, vp, wp = _pad(f.u), _pad(f.v), _pad(f.w)
    drag = solver._resistance * (
        NU_AIR * SCREEN_DARCY + 0.5 * SCREEN_FORCHHEIMER * f.speed()
    )
    damp = 1.0 / (1.0 + dt * drag)
    buoy = GRAVITY * BETA_AIR * (f.temperature - cfg.reference_temperature_k)
    u_star = damp * (f.u + dt * (
        -_upwind_advect(up, f.u, f.v, f.w, dx, dy, dz)
        + NU_EFFECTIVE * _lap(up, dx, dy, dz)
    ))
    v_star = damp * (f.v + dt * (
        -_upwind_advect(vp, f.u, f.v, f.w, dx, dy, dz)
        + NU_EFFECTIVE * _lap(vp, dx, dy, dz)
    ))
    w_star = damp * (f.w + dt * (
        -_upwind_advect(wp, f.u, f.v, f.w, dx, dy, dz)
        + NU_EFFECTIVE * _lap(wp, dx, dy, dz)
        + buoy
    ))
    f.u, f.v, f.w = u_star, v_star, w_star
    solver.apply_velocity_bcs(f)

    gx, _, _ = _grad(_pad(f.u), dx, dy, dz)
    _, gy, _ = _grad(_pad(f.v), dx, dy, dz)
    _, _, gz = _grad(_pad(f.w), dx, dy, dz)
    rhs = (gx + gy + gz) / dt
    p = f.p
    coeffs, denom = _porous_coeffs(damp, dx, dy, dz)
    ax_p, ax_m, ay_p, ay_m, az_p, az_m = coeffs
    for _ in range(cfg.poisson_iterations):
        pp = _pad_pressure(p)
        p = (
            ax_p * pp[2:, 1:-1, 1:-1] + ax_m * pp[:-2, 1:-1, 1:-1]
            + ay_p * pp[1:-1, 2:, 1:-1] + ay_m * pp[1:-1, :-2, 1:-1]
            + az_p * pp[1:-1, 1:-1, 2:] + az_m * pp[1:-1, 1:-1, :-2]
            - rhs
        ) / denom
    f.p = p

    gx, gy, gz = _grad(_pad_pressure(p), dx, dy, dz)
    f.u -= dt * damp * gx
    f.v -= dt * damp * gy
    f.w -= dt * damp * gz
    solver.apply_velocity_bcs(f)

    tp = _pad(f.temperature)
    f.temperature = f.temperature + dt * (
        -_upwind_advect(tp, f.u, f.v, f.w, dx, dy, dz)
        + ALPHA_EFFECTIVE * _lap(tp, dx, dy, dz)
    )
    solver.apply_temperature_bcs(f)


def assert_bit_identical(a: FlowFields, b: FlowFields, context: str = ""):
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(x, y), (
            f"{context} field {name}: max abs diff "
            f"{np.max(np.abs(x - y)):.3e}"
        )


class TestPaddedScratch:
    """The in-place ghost refresh must reproduce ``np.pad`` exactly."""

    def test_refresh_matches_np_pad_edge(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 4, 6))
        ws = PaddedScratch(x.shape)
        ws.load(x)
        assert np.array_equal(ws.padded, np.pad(x, 1, mode="edge"))

    def test_outlet_refresh_matches_pad_pressure(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 5, 4))
        ws = PaddedScratch(x.shape)
        np.copyto(ws.interior, x)
        ws.refresh_ghosts_outlet()
        assert np.array_equal(ws.padded, _pad_pressure(x))

    def test_reload_overwrites_previous_state(self):
        ws = PaddedScratch((3, 3, 3))
        ws.load(np.full((3, 3, 3), 9.0))
        ws.load(np.zeros((3, 3, 3)))
        assert np.array_equal(ws.padded, np.zeros((5, 5, 5)))


class TestSerialBitParity:
    def test_buffered_step_matches_reference(self):
        mesh, bcs, cfg = build_case()
        new = ProjectionSolver(mesh, bcs, cfg)
        ref = ProjectionSolver(mesh, bcs, cfg)
        fn = FlowFields(mesh).initialize_uniform(temperature=294.0)
        fr = FlowFields(mesh).initialize_uniform(temperature=294.0)
        for i in range(cfg.n_steps):
            new.step(fn)
            reference_step(ref, fr)
            assert_bit_identical(fn, fr, f"step {i}")

    def test_divergence_norm_matches_reference(self):
        mesh, bcs, cfg = build_case()
        solver = ProjectionSolver(mesh, bcs, cfg)
        f = FlowFields(mesh).initialize_uniform(temperature=294.0)
        for _ in range(3):
            solver.step(f)
        m = mesh
        gx, _, _ = _grad(_pad(f.u), m.dx, m.dy, m.dz)
        _, gy, _ = _grad(_pad(f.v), m.dx, m.dy, m.dz)
        _, _, gz = _grad(_pad(f.w), m.dx, m.dy, m.dz)
        div = (gx + gy + gz)[1:-1, 1:-1, 1:-1]
        expected = float(np.sqrt(np.mean(div**2)))
        assert solver.divergence_norm(f) == expected

    def test_jacobi_runs_configured_sweeps(self):
        mesh, bcs, cfg = build_case()
        solver = ProjectionSolver(mesh, bcs, cfg)
        f = FlowFields(mesh).initialize_uniform(temperature=294.0)
        solver.step(f)
        assert solver.last_pressure_sweeps == cfg.poisson_iterations


class TestDecomposedBitParity:
    @pytest.mark.parametrize("n_ranks", [1, 3, 5])
    def test_decomposed_matches_reference(self, n_ranks):
        mesh, bcs, cfg = build_case()
        ref = ProjectionSolver(mesh, bcs, cfg)
        fr = FlowFields(mesh).initialize_uniform(temperature=294.0)
        dec = DecomposedSolver(mesh, bcs, cfg, n_ranks=n_ranks)
        fd = FlowFields(mesh).initialize_uniform(temperature=294.0)
        for i in range(cfg.n_steps):
            dec.step(fd)
            reference_step(ref, fr)
            assert_bit_identical(fd, fr, f"ranks={n_ranks} step {i}")

    def test_sor_decomposed_matches_serial(self):
        mesh, bcs, cfg = build_case(
            pressure_solver="sor", sor_omega=1.7
        )
        ser = ProjectionSolver(mesh, bcs, cfg)
        fs = FlowFields(mesh).initialize_uniform(temperature=294.0)
        dec = DecomposedSolver(mesh, bcs, cfg, n_ranks=3)
        fd = FlowFields(mesh).initialize_uniform(temperature=294.0)
        for i in range(cfg.n_steps):
            ser.step(fs)
            dec.step(fd)
            assert_bit_identical(fs, fd, f"sor step {i}")


class TestSorPressureSolver:
    """SOR quality claims, measured where they matter: the projection.

    The raw algebraic residual of this operator is dominated by stiff
    screen-interface modes, so the honest comparison metric is the
    post-step divergence norm -- the quantity the pressure solve exists to
    reduce.
    """

    @staticmethod
    def _warm_fields(mesh, bcs):
        warm = ProjectionSolver(mesh, bcs, SolverConfig(dt=0.02, poisson_iterations=60))
        f = FlowFields(mesh).initialize_uniform(temperature=295.15)
        for _ in range(5):
            warm.step(f)
        return f

    def test_sor_matches_jacobi_divergence_in_third_the_sweeps(self):
        mesh, bcs, _ = build_case()
        f0 = self._warm_fields(mesh, bcs)

        jac = ProjectionSolver(mesh, bcs, SolverConfig(dt=0.02, poisson_iterations=60))
        fj = f0.copy()
        jac.step(fj)

        sor = ProjectionSolver(mesh, bcs, SolverConfig(
            dt=0.02, poisson_iterations=20,
            pressure_solver="sor", sor_omega=1.7,
        ))
        fs = f0.copy()
        sor.step(fs)

        assert sor.last_pressure_sweeps == 20 < jac.last_pressure_sweeps == 60
        assert jac.divergence_norm(fs) <= jac.divergence_norm(fj)

    def test_tolerance_early_exit(self):
        mesh, bcs, _ = build_case()
        f0 = self._warm_fields(mesh, bcs)
        # A huge tolerance exits at the first residual check ...
        eager = ProjectionSolver(mesh, bcs, SolverConfig(
            dt=0.02, poisson_iterations=40, pressure_solver="sor",
            poisson_tolerance=1e12, poisson_check_every=4,
        ))
        eager.step(f0.copy())
        assert eager.last_pressure_sweeps == 4
        # ... and tolerance 0 (the default) runs the full cap.
        full = ProjectionSolver(mesh, bcs, SolverConfig(
            dt=0.02, poisson_iterations=40, pressure_solver="sor",
        ))
        full.step(f0.copy())
        assert full.last_pressure_sweeps == 40

    def test_residual_norm_reports_finite_positive(self):
        mesh, bcs, cfg = build_case()
        solver = ProjectionSolver(mesh, bcs, cfg)
        f = FlowFields(mesh).initialize_uniform(temperature=294.0)
        solver.step(f)
        r = solver.pressure_residual_norm()
        assert np.isfinite(r) and r >= 0.0

    def test_fused_half_pass_matches_two_step_formulation(self):
        """``dst = keep*src + sum cw*nb - rw`` equals
        ``p + omega*mask*(jacobi(p) - p)`` on every interior cell."""
        mesh, bcs, cfg = build_case(pressure_solver="sor", sor_omega=1.7)
        solver = ProjectionSolver(mesh, bcs, cfg)
        f = FlowFields(mesh).initialize_uniform(temperature=294.0)
        for _ in range(3):
            solver.step(f)
        # Load a real step's operands, with a non-trivial initial guess.
        solver._load_velocity_buffers(f)
        solver._load_poisson(f)
        ws = solver.pressure
        plan = ws.full_plan
        ii, jj, kk = np.indices(mesh.shape)
        red = (ii + jj + kk) % 2 == 0
        for colour, mask in enumerate((red, ~red)):
            ws.load(f.p)
            ws.refresh_ghosts()
            p = ws.src.interior.copy()
            ws.sweep(plan)
            jacobi = ws.bufs[1 - ws.cur].interior.copy()
            expected = p + cfg.sor_omega * mask * (jacobi - p)

            ws.sor_half_pass(plan, colour)
            fused = ws.bufs[1 - ws.cur].interior
            scale = np.max(np.abs(expected))
            assert scale > 0.0
            assert np.max(np.abs(fused - expected)) <= 1e-12 * scale
            # Off-colour cells are copied through exactly.
            assert np.array_equal(fused[~mask], p[~mask])

    def test_sor_stays_finite_over_many_steps(self):
        mesh, bcs, cfg = build_case(pressure_solver="sor", sor_omega=1.7)
        solver = ProjectionSolver(mesh, bcs, cfg)
        f = FlowFields(mesh).initialize_uniform(temperature=294.0)
        for _ in range(20):
            solver.step(f)
        assert nonfinite_fields(f) == []


class TestConfigValidation:
    def test_rejects_unknown_pressure_solver(self):
        with pytest.raises(ValueError, match="pressure_solver"):
            SolverConfig(pressure_solver="multigrid")

    @pytest.mark.parametrize("omega", [0.0, 2.0, -1.0, 2.5])
    def test_rejects_omega_out_of_range(self, omega):
        with pytest.raises(ValueError, match="sor_omega"):
            SolverConfig(pressure_solver="sor", sor_omega=omega)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="poisson_tolerance"):
            SolverConfig(poisson_tolerance=-1e-3)

    def test_rejects_bad_check_interval(self):
        with pytest.raises(ValueError, match="poisson_check_every"):
            SolverConfig(poisson_check_every=0)


class TestFiniteChecks:
    """The divergence check must cover every field and name the bad ones."""

    def test_nonfinite_fields_names_each_field(self):
        mesh = StructuredMesh(nx=4, ny=4, nz=4, lx=4.0, ly=4.0, lz=4.0)
        f = FlowFields(mesh)
        assert nonfinite_fields(f) == []
        f.v[1, 2, 3] = np.nan
        f.temperature[0, 0, 0] = np.inf
        assert nonfinite_fields(f) == ["v", "temperature"]

    def test_solve_error_names_blown_up_field(self):
        mesh, bcs, _ = build_case()
        # A wildly unstable dt blows the solve up within a few steps.
        cfg = SolverConfig(dt=50.0, n_steps=10, poisson_iterations=2)
        solver = ProjectionSolver(mesh, bcs, cfg)
        with pytest.raises(FloatingPointError, match="non-finite field"):
            solver.solve()

    def test_decomposed_solve_error_names_blown_up_field(self):
        mesh, bcs, _ = build_case()
        cfg = SolverConfig(dt=50.0, n_steps=10, poisson_iterations=2)
        solver = DecomposedSolver(mesh, bcs, cfg, n_ranks=2)
        with pytest.raises(FloatingPointError, match="non-finite field"):
            solver.solve()


class TestHoistedBoundaryValues:
    """Regression: apply_velocity_bcs must not recompute mesh geometry."""

    def test_no_cell_centers_calls_during_stepping(self, monkeypatch):
        mesh, bcs, cfg = build_case()
        solver = ProjectionSolver(mesh, bcs, cfg)
        calls = []
        original = StructuredMesh.cell_centers

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(StructuredMesh, "cell_centers", counting)
        f = FlowFields(mesh).initialize_uniform(temperature=294.0)
        for _ in range(3):
            solver.step(f)
        assert calls == [], (
            f"cell_centers() called {len(calls)} times during stepping; "
            "inlet profile should be hoisted into __init__"
        )

    def test_hoisted_inlet_matches_direct_profile(self):
        mesh, bcs, cfg = build_case()
        solver = ProjectionSolver(mesh, bcs, cfg)
        f = FlowFields(mesh).initialize_uniform(temperature=294.0)
        solver.apply_velocity_bcs(f)
        _, _, z = mesh.cell_centers()
        cu, cv = bcs.inlet.components
        profile = bcs.inlet.profile(z)
        # Ground no-slip (z = 0) is applied after the inlet, so compare
        # the profile away from the ground row.
        shape = f.u[0, :, 1:].shape
        assert np.array_equal(
            f.u[0, :, 1:], np.broadcast_to((profile * cu)[None, 1:], shape)
        )
        assert np.array_equal(
            f.v[0, :, 1:], np.broadcast_to((profile * cv)[None, 1:], shape)
        )
