"""Parity and regression tests for the allocation-free solver kernels.

The buffered flat-row kernels must reproduce the seed ``np.pad``-based
kernels **bit for bit** -- same operands, same IEEE operation order. The
reference step (``tests/cfd/reference.py``) runs the seed kernels with a
red-black SOR loop in the fused half-pass's per-cell order, so any drift
in the solver shows up as an exact-equality failure here rather than as a
slow physics regression elsewhere.
"""

import numpy as np
import pytest

from repro.cfd import (
    BoundaryConditions,
    FlowFields,
    PaddedScratch,
    ProjectionSolver,
    SolverConfig,
    StructuredMesh,
    WindInlet,
)
from repro.cfd.boundary import cups_screen_walls
from repro.cfd.mesh import default_mesh
from repro.cfd.solver import SOR_OMEGA, nonfinite_fields
from repro.core.config import TWIN_SOLVER, FabricConfig
from tests.cfd.reference import (
    divergence,
    divergence_norm,
    jacobi,
    pad_pressure,
    porous_coeffs,
    reference_step,
)

FIELDS = ("u", "v", "w", "p", "temperature")


def build_case(mesh=None):
    mesh = mesh if mesh is not None else default_mesh()
    bcs = BoundaryConditions(
        inlet=WindInlet(speed_mps=3.0, direction_deg=15.0, temperature_k=291.0),
        screens=cups_screen_walls(mesh),
        ground_temperature_k=299.0,
    )
    cfg = SolverConfig(dt=0.02, n_steps=8, poisson_iterations=20)
    return mesh, bcs, cfg


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
        assert np.array_equal(ws.padded, pad_pressure(x))

    def test_reload_overwrites_previous_state(self):
        ws = PaddedScratch((3, 3, 3))
        ws.load(np.full((3, 3, 3), 9.0))
        ws.load(np.zeros((3, 3, 3)))
        assert np.array_equal(ws.padded, np.zeros((5, 5, 5)))


class TestSerialBitParity:
    def test_buffered_step_matches_reference(self):
        twin_mesh, twin_bcs, _ = build_case(FabricConfig().twin_mesh)
        cases = (
            build_case(),
            # The fabric twin's mesh and sweep count.
            (twin_mesh, twin_bcs, SolverConfig(
                dt=TWIN_SOLVER.dt, n_steps=30,
                poisson_iterations=TWIN_SOLVER.poisson_iterations,
            )),
        )
        for mesh, bcs, cfg in cases:
            new = ProjectionSolver(mesh, bcs, cfg)
            ref = ProjectionSolver(mesh, bcs, cfg)
            fn = FlowFields(mesh).initialize_uniform(temperature=294.0)
            fr = FlowFields(mesh).initialize_uniform(temperature=294.0)
            for i in range(cfg.n_steps):
                new.step(fn)
                reference_step(ref, fr)
                assert_bit_identical(fn, fr, f"{mesh.shape} step {i}")

    def test_divergence_norm_matches_reference(self):
        mesh, bcs, cfg = build_case()
        solver = ProjectionSolver(mesh, bcs, cfg)
        f = FlowFields(mesh).initialize_uniform(temperature=294.0)
        for _ in range(3):
            solver.step(f)
        assert solver.divergence_norm(f) == divergence_norm(f)


class TestSorPressureSolver:
    """SOR quality claims, measured where they matter: the projection.

    The raw algebraic residual of this operator is dominated by stiff
    screen-interface modes, so the honest comparison metric is the
    post-step divergence norm -- the quantity the pressure solve exists to
    reduce.
    """

    @staticmethod
    def _warm_fields(solver):
        """Five steps of the 60-sweep Jacobi baseline from rest."""
        f = FlowFields(solver.mesh).initialize_uniform(temperature=295.15)
        for _ in range(5):
            reference_step(solver, f, jacobi_sweeps=60)
        return f

    def test_sor_matches_jacobi_divergence_in_third_the_sweeps(self):
        mesh, bcs, _ = build_case()
        sor = ProjectionSolver(
            mesh, bcs, SolverConfig(dt=0.02, poisson_iterations=20)
        )
        f0 = self._warm_fields(sor)

        fj = f0.copy()
        reference_step(sor, fj, jacobi_sweeps=60)
        fs = f0.copy()
        sor.step(fs)

        assert sor.divergence_norm(fs) <= sor.divergence_norm(fj)

    def test_fused_half_pass_matches_two_step_formulation(self):
        """``dst = keep*src + sum cw*nb - rw`` equals
        ``p + omega*mask*(jacobi(p) - p)`` on every interior cell."""
        mesh, bcs, cfg = build_case()
        solver = ProjectionSolver(mesh, bcs, cfg)
        f = FlowFields(mesh).initialize_uniform(temperature=294.0)
        for _ in range(3):
            solver.step(f)
        # Load a real step's operands, with a non-trivial initial guess.
        solver._load_velocity_buffers(f)
        solver._load_poisson(f)
        ws = solver.pressure
        coeffs, denom = porous_coeffs(solver._damp, mesh.dx, mesh.dy, mesh.dz)
        rhs = divergence(f) / cfg.dt
        ii, jj, kk = np.indices(mesh.shape)
        red = (ii + jj + kk) % 2 == 0
        for colour, mask in enumerate((red, ~red)):
            ws.load(f.p)
            ws.refresh_ghosts()
            p = ws.src.interior.copy()
            expected = p + SOR_OMEGA * mask * (
                jacobi(p, coeffs, denom, rhs, 1) - p
            )

            ws.sor_half_pass(colour)
            fused = ws.bufs[1 - ws.cur].interior
            scale = np.max(np.abs(expected))
            assert scale > 0.0
            assert np.max(np.abs(fused - expected)) <= 1e-12 * scale
            # Off-colour cells are copied through exactly.
            assert np.array_equal(fused[~mask], p[~mask])

    def test_sor_stays_finite_over_many_steps(self):
        mesh, bcs, cfg = build_case()
        solver = ProjectionSolver(mesh, bcs, cfg)
        f = FlowFields(mesh).initialize_uniform(temperature=294.0)
        for _ in range(20):
            solver.step(f)
        assert nonfinite_fields(f) == []


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
        cfg = SolverConfig(dt=50.0, n_steps=10, poisson_iterations=1)
        solver = ProjectionSolver(mesh, bcs, cfg)
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
