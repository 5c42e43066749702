"""Incompressible Boussinesq projection solver.

Chorin splitting per time step:

1. **Predictor** -- explicit upwind advection, central diffusion, the
   screen's Darcy-Forchheimer momentum sink, and Boussinesq buoyancy give a
   provisional velocity ``u*``.
2. **Pressure Poisson** -- ``div(damp grad p) = div(u*) / dt`` solved by
   Jacobi iteration with homogeneous Neumann boundaries (fixed iteration
   count for determinism; the residual is reported, not hidden), or by
   red-black SOR with a residual-tolerance early exit
   (``SolverConfig.pressure_solver = "sor"``).
3. **Corrector** -- ``u = u* - dt * grad(p)`` projects the field toward
   divergence-freedom (mass conservation; property-tested).
4. **Energy** -- temperature advects/diffuses with a Dirichlet ground.

All stencils use edge-replicated ghost cells: the same operator applies
unchanged to a slab with halo cells, which is what makes the
domain-decomposed solver (:mod:`repro.cfd.parallel`) bit-identical to this
one. Everything is vectorized NumPy -- no Python loops over cells.

**Kernel architecture (allocation-free).** The seed kernels rebuilt a
padded copy of every field with ``np.pad`` on each stencil call -- the
Poisson loop alone allocated 60 padded arrays per time step. The hot path
now runs on persistent scratch owned by the solver:

* each advected/diffused field lives in a :class:`~repro.cfd.fields.PaddedScratch`
  whose ghost layer is refreshed in place (six face copies, O(n^2));
* every stencil routine writes through preallocated ``out=`` arrays, so a
  time step performs no full-field allocations;
* the stencils -- advection, diffusion, divergence, the Poisson
  coefficients and the pressure sweeps -- operate on *flat contiguous*
  row views of the padded buffers (:class:`_StencilRows`,
  :class:`_RowPlan`): a neighbour is the same row range shifted by a
  constant offset, so every ufunc pass is a contiguous streaming
  operation rather than a strided 3-D walk. The ghost y/z lanes inside
  those rows compute garbage that is never read back; a result leaves
  the padded layout through its interior view;
* red-black SOR runs as one fused ping-pong pass per colour,
  ``dst = keep*src + sum_d cw_d*nb_d - rw``, on operands rebuilt once per
  step (:meth:`PressureWorkspace.load_sor_operands`);
* all kernels take an x-row range ``(s, e)``: the serial solver passes the
  whole domain and :class:`~repro.cfd.parallel.DecomposedSolver` passes its
  slabs, so serial and decomposed execution share one code path (and one
  pressure iteration loop) and stay bit-identical *by construction*.

The per-cell arithmetic (operands, operation order) is exactly the seed's,
so Jacobi-mode results are bit-identical to the original ``np.pad`` kernels
(enforced by ``tests/cfd/test_kernel_parity.py``).

The legacy free functions (``_pad``, ``_lap``, ...) are retained as the
readable reference semantics and for the parity tests; the solver itself no
longer calls them per step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.cfd.boundary import (
    SCREEN_DARCY,
    SCREEN_FORCHHEIMER,
    BoundaryConditions,
)
from repro.cfd.fields import FlowFields, PaddedScratch
from repro.cfd.mesh import StructuredMesh
from repro.obs.trace import NULL_TRACER, Tracer

#: Wall-time histogram buckets for kernel timings (seconds): the step and
#: Poisson loops run 1e-5 .. 1e1 s depending on mesh size.
WALL_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
)

#: Air properties (SI).
NU_AIR = 1.5e-5          # kinematic viscosity, m^2/s
ALPHA_AIR = 2.0e-5       # thermal diffusivity, m^2/s
BETA_AIR = 3.4e-3        # thermal expansion, 1/K
GRAVITY = 9.81

#: Eddy viscosity stand-in: the real case runs RANS turbulence closure; a
#: constant eddy viscosity keeps the laptop-scale solve stable and realistic
#: in magnitude without a k-epsilon model.
NU_EFFECTIVE = 0.05
ALPHA_EFFECTIVE = 0.07

#: Valid pressure-solver modes.
PRESSURE_SOLVERS = ("jacobi", "sor")


@dataclass(frozen=True)
class SolverConfig:
    """Numerical parameters.

    Attributes
    ----------
    dt:
        Time step (s). Must satisfy the advective CFL for the given wind;
        check with :meth:`ProjectionSolver.max_stable_dt`.
    n_steps:
        Steps per solve.
    poisson_iterations:
        Jacobi sweeps per step (fixed for determinism), or the iteration
        cap in ``"sor"`` mode (one SOR sweep = a red and a black half-pass).
    reference_temperature_k:
        Boussinesq reference.
    pressure_solver:
        ``"jacobi"`` (default): fixed-sweep Jacobi, bit-for-bit the seed
        behaviour and the parity reference. ``"sor"``: red-black
        successive over-relaxation. Judged by post-step divergence (the
        quantity the projection exists to reduce; the algebraic residual
        misranks the two solvers, see ``docs/calibration.md``), 5 SOR
        sweeps at omega = 1.7 match or beat 40-60 Jacobi sweeps on the
        meshes used here -- the fabric twin runs exactly that. Combine with
        ``poisson_tolerance`` for an early exit.
    sor_omega:
        Over-relaxation factor in (0, 2); ~1.7-1.9 is optimal for the
        meshes used here. Only read in ``"sor"`` mode.
    poisson_tolerance:
        RMS-residual early-exit threshold for ``"sor"`` mode. ``0.0``
        (default) disables the exit and runs the full iteration cap.
    poisson_check_every:
        How often (in SOR iterations) the residual is evaluated for the
        early exit; checking costs about one extra sweep.
    """

    dt: float = 0.05
    n_steps: int = 100
    poisson_iterations: int = 60
    reference_temperature_k: float = 293.15
    pressure_solver: str = "jacobi"
    sor_omega: float = 1.7
    poisson_tolerance: float = 0.0
    poisson_check_every: int = 5

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive: {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1: {self.n_steps}")
        if self.poisson_iterations < 1:
            raise ValueError("poisson_iterations must be >= 1")
        if self.pressure_solver not in PRESSURE_SOLVERS:
            raise ValueError(
                f"pressure_solver must be one of {PRESSURE_SOLVERS}: "
                f"{self.pressure_solver!r}"
            )
        if not 0.0 < self.sor_omega < 2.0:
            raise ValueError(f"sor_omega must be in (0, 2): {self.sor_omega}")
        if self.poisson_tolerance < 0.0:
            raise ValueError(
                f"poisson_tolerance must be >= 0: {self.poisson_tolerance}"
            )
        if self.poisson_check_every < 1:
            raise ValueError("poisson_check_every must be >= 1")


@dataclass
class SolverResult:
    """Outcome of a solve."""

    fields: FlowFields
    divergence_history: list[float] = field(default_factory=list)
    kinetic_energy_history: list[float] = field(default_factory=list)
    steps_run: int = 0

    @property
    def final_divergence(self) -> float:
        return self.divergence_history[-1] if self.divergence_history else float("nan")


# -- reference kernels (seed semantics; kept for parity tests and docs) ------


def _pad(f: np.ndarray) -> np.ndarray:
    return np.pad(f, 1, mode="edge")


def _pad_pressure(p: np.ndarray) -> np.ndarray:
    """Pad pressure: Neumann (edge) everywhere except the outlet (x = lx)
    face, which is Dirichlet p = 0 (ghost = -last cell). Without a pressure
    anchor at the outlet, the all-Neumann Poisson problem is incompatible
    with net inflow and the projection pumps energy instead of removing it.
    """
    pp = np.pad(p, 1, mode="edge")
    pp[-1, :, :] = -pp[-2, :, :]
    return pp


def _lap(fp: np.ndarray, dx: float, dy: float, dz: float) -> np.ndarray:
    """7-point Laplacian from a padded array."""
    c = fp[1:-1, 1:-1, 1:-1]
    return (
        (fp[2:, 1:-1, 1:-1] - 2 * c + fp[:-2, 1:-1, 1:-1]) / dx**2
        + (fp[1:-1, 2:, 1:-1] - 2 * c + fp[1:-1, :-2, 1:-1]) / dy**2
        + (fp[1:-1, 1:-1, 2:] - 2 * c + fp[1:-1, 1:-1, :-2]) / dz**2
    )


def _grad(fp: np.ndarray, dx: float, dy: float, dz: float):
    """Central gradient components from a padded array."""
    gx = (fp[2:, 1:-1, 1:-1] - fp[:-2, 1:-1, 1:-1]) / (2 * dx)
    gy = (fp[1:-1, 2:, 1:-1] - fp[1:-1, :-2, 1:-1]) / (2 * dy)
    gz = (fp[1:-1, 1:-1, 2:] - fp[1:-1, 1:-1, :-2]) / (2 * dz)
    return gx, gy, gz


def _porous_coeffs(damp: np.ndarray, dx: float, dy: float, dz: float):
    """Face mobility coefficients for the variable-coefficient Poisson
    operator ``div(damp grad p)``: arithmetic face averages of the
    cell-centered mobility, divided by the squared spacing. Returns
    ``((ax_p, ax_m, ay_p, ay_m, az_p, az_m), denom)``.
    """
    bp = _pad(damp)
    c = bp[1:-1, 1:-1, 1:-1]
    ax_p = 0.5 * (bp[2:, 1:-1, 1:-1] + c) / dx**2
    ax_m = 0.5 * (bp[:-2, 1:-1, 1:-1] + c) / dx**2
    ay_p = 0.5 * (bp[1:-1, 2:, 1:-1] + c) / dy**2
    ay_m = 0.5 * (bp[1:-1, :-2, 1:-1] + c) / dy**2
    az_p = 0.5 * (bp[1:-1, 1:-1, 2:] + c) / dz**2
    az_m = 0.5 * (bp[1:-1, 1:-1, :-2] + c) / dz**2
    denom = ax_p + ax_m + ay_p + ay_m + az_p + az_m
    return (ax_p, ax_m, ay_p, ay_m, az_p, az_m), denom


def _upwind_advect(
    fp: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray,
    dx: float, dy: float, dz: float,
) -> np.ndarray:
    """First-order upwind ``(U . grad) f`` from a padded scalar."""
    c = fp[1:-1, 1:-1, 1:-1]
    bx = (c - fp[:-2, 1:-1, 1:-1]) / dx
    fx = (fp[2:, 1:-1, 1:-1] - c) / dx
    by = (c - fp[1:-1, :-2, 1:-1]) / dy
    fy = (fp[1:-1, 2:, 1:-1] - c) / dy
    bz = (c - fp[1:-1, 1:-1, :-2]) / dz
    fz = (fp[1:-1, 1:-1, 2:] - c) / dz
    return (
        np.where(u > 0, u * bx, u * fx)
        + np.where(v > 0, v * by, v * fy)
        + np.where(w > 0, w * bz, w * fz)
    )


def nonfinite_fields(f: FlowFields) -> list[str]:
    """Names of flow fields containing NaN/Inf (empty when all finite)."""
    bad = []
    for name, arr in (
        ("u", f.u), ("v", f.v), ("w", f.w),
        ("p", f.p), ("temperature", f.temperature),
    ):
        if not np.all(np.isfinite(arr)):
            bad.append(name)
    return bad


class _RowPlan:
    """Precomputed flat views for one x-row range of the pressure sweep.

    Rows ``[a, b)`` of the flattened padded buffers cover padded x-planes
    ``s+1 .. e`` -- the interior planes of cell slab ``[s, e)`` plus their
    ghost y/z columns (whose results are garbage, overwritten by the next
    ghost refresh and never read). Every operand is a contiguous 1-D slice,
    so each pass streams through memory with no strided inner loops and no
    allocation.
    """

    __slots__ = ("coef", "rhs", "den", "acc", "tmp", "sor", "dirs")

    def __init__(self, ws: "PressureWorkspace", s: int, e: int) -> None:
        a, b = (s + 1) * ws.sy, (e + 1) * ws.sy
        self.coef = tuple(c[a:b] for c in ws.coef_flat)
        self.rhs = ws.rhs_flat[a:b]
        self.den = ws.den_flat[a:b]
        self.acc = ws.acc[a:b]
        self.tmp = ws.tmp[a:b]
        # Per colour (keep, cw, rw) of the fused SOR half-pass.
        self.sor = tuple(
            (keep[a:b], tuple(c[a:b] for c in cw), rw[a:b])
            for keep, cw, rw in ws.sor_operands
        )
        # One (reads, dst, src) triple per ping-pong direction.
        self.dirs = []
        for si, di in ((0, 1), (1, 0)):
            src, *reads = ws.bufs[si].flat_rows(s, e)
            self.dirs.append((tuple(reads), ws.bufs[di].flat[a:b], src))


class PressureWorkspace:
    """Flat-contiguous scratch for the variable-coefficient Poisson solve.

    Holds two ping-pong padded pressure buffers, flat padded coefficient /
    rhs / denominator arrays and shared accumulator scratch. The solver
    loads the operands on the plan rows each step, so their ghost y/z lanes
    hold finite garbage; the x ghost planes stay 0 (denominator 1) and
    every lane stays finite. Given ``sor_omega`` it also holds the
    per-colour operands of the fused SOR half-pass. Sweeps allocate nothing.
    """

    def __init__(
        self, shape: tuple[int, int, int], sor_omega: Optional[float] = None
    ) -> None:
        nx, ny, nz = shape
        self.shape = shape
        pshape = (nx + 2, ny + 2, nz + 2)
        self.sy = (ny + 2) * (nz + 2)
        self.bufs = (PaddedScratch(shape), PaddedScratch(shape))
        self.cur = 0

        def padded(fill: float) -> np.ndarray:
            return np.full(pshape, fill)

        self.coef_flat = tuple(padded(0.0).ravel() for _ in range(6))
        self.rhs_flat = padded(0.0).ravel()
        self.den_flat = padded(1.0).ravel()
        acc3 = padded(0.0)
        self.acc = acc3.ravel()
        self.acc_int = acc3[1:-1, 1:-1, 1:-1]
        self.tmp = np.zeros_like(self.acc)

        # Fused SOR operands per colour of the global checkerboard
        # (cell-index parity; ghost cells are in neither colour, so their
        # lanes copy through): keep = 1 - omega*mask is fixed here, the
        # coefficient weights cw_d = omega*mask*coef_d/den and the rhs
        # weight rw = omega*mask*rhs/den are rebuilt each step by
        # load_sor_operands().
        self._omega_mask: tuple[np.ndarray, ...] = ()
        self.sor_operands: tuple[
            tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray], ...
        ] = ()
        if sor_omega is not None:
            ii, jj, kk = np.indices(shape, sparse=True)
            red = np.broadcast_to((ii + jj + kk) % 2 == 0, shape)
            masks = []
            for colour in (red, ~red):
                m = padded(0.0)
                m[1:-1, 1:-1, 1:-1] = sor_omega * colour
                masks.append(m.ravel())
            self._omega_mask = tuple(masks)
            self._scale = np.zeros_like(self.acc)
            self.sor_operands = tuple(
                (
                    1.0 - m,
                    tuple(np.zeros_like(self.acc) for _ in range(6)),
                    np.zeros_like(self.acc),
                )
                for m in masks
            )

        self._plans: dict[tuple[int, int], _RowPlan] = {}
        self.full_plan = self.plan(0, nx)

    # -- plan / buffer management ---------------------------------------------

    def plan(self, s: int, e: int) -> _RowPlan:
        """The (cached) sweep plan for cell slab ``[s, e)``."""
        key = (s, e)
        if key not in self._plans:
            self._plans[key] = _RowPlan(self, s, e)
        return self._plans[key]

    @property
    def src(self) -> PaddedScratch:
        return self.bufs[self.cur]

    def load(self, p: np.ndarray) -> None:
        """Start a solve from initial guess ``p`` (resets the ping-pong)."""
        self.cur = 0
        np.copyto(self.bufs[0].interior, p)

    def swap(self) -> None:
        self.cur = 1 - self.cur

    def refresh_ghosts(self) -> None:
        """Pressure ghost refresh: Neumann faces + the Dirichlet outlet."""
        self.src.refresh_ghosts_outlet()

    # -- kernels ------------------------------------------------------------

    def sweep(self, plan: _RowPlan) -> None:
        """One Jacobi application ``dst = (sum coef*nb - rhs) / den`` over
        the plan's rows; per-cell arithmetic order matches the seed kernel
        exactly (bit-identical)."""
        reads, dst, _ = plan.dirs[self.cur]
        acc, tmp = plan.acc, plan.tmp
        np.multiply(plan.coef[0], reads[0], out=acc)
        for c, r in zip(plan.coef[1:], reads[1:]):
            np.multiply(c, r, out=tmp)
            np.add(acc, tmp, out=acc)
        np.subtract(acc, plan.rhs, out=acc)
        np.divide(acc, plan.den, out=dst)

    def load_sor_operands(self) -> None:
        """Per-step SOR setup from the loaded coefficients and rhs."""
        scale = self._scale
        for m, (_, cw, rw) in zip(self._omega_mask, self.sor_operands):
            np.divide(m, self.den_flat, out=scale)
            for c, w in zip(self.coef_flat, cw):
                np.multiply(c, scale, out=w)
            np.multiply(self.rhs_flat, scale, out=rw)

    def sor_half_pass(self, plan: _RowPlan, colour: int) -> None:
        """One red-black half-pass over the plan's rows, source to
        destination: ``dst = keep*src + sum_d cw_d*nb_d - rw``, i.e.
        ``p + omega*(jacobi(p) - p)`` on ``colour`` cells and a copy on the
        others. Same-colour cells are never stencil neighbours, so this is
        Gauss-Seidel within a colour, and slabs are independent between
        colour barriers."""
        reads, dst, src = plan.dirs[self.cur]
        keep, cw, rw = plan.sor[colour]
        tmp = plan.tmp
        np.multiply(keep, src, out=dst)
        for c, r in zip(cw, reads):
            np.multiply(c, r, out=tmp)
            np.add(dst, tmp, out=dst)
        np.subtract(dst, rw, out=dst)

    def residual_norm(self) -> float:
        """RMS of ``A p - rhs`` over all cells for the current iterate.

        Uses ``r = den * (update - p)``, where ``update`` is one Jacobi
        application -- costs about one sweep.
        """
        self.refresh_ghosts()
        self.sweep(self.full_plan)
        _, dst, src = self.full_plan.dirs[self.cur]
        np.subtract(dst, src, out=self.full_plan.acc)
        np.multiply(self.full_plan.acc, self.full_plan.den, out=self.full_plan.acc)
        r = self.acc_int
        return float(np.sqrt(np.mean(r * r)))


class _StencilRows:
    """Flat views for one x-row range of the field stencils (advection,
    diffusion, divergence, Poisson coefficients).

    The same row layout as :class:`_RowPlan`: every operand is a
    contiguous slice of a flattened padded buffer, and results on the
    ghost y/z lanes are garbage that is never read back. ``u``/``v``/
    ``w``/``t`` hold ``(centre, xp, xm, yp, ym, zp, zm)`` of each padded
    field (``mobility`` is the padded damping factor the Poisson
    coefficients average); ``acc_int`` is the interior view of the
    accumulator rows, through which a result leaves the padded layout.
    """

    __slots__ = ("u", "v", "w", "t", "mobility", "upwind", "acc", "acc_int",
                 "buoy", "div", "lap", "t1", "t2")

    def __init__(self, solver: "ProjectionSolver", s: int, e: int) -> None:
        sy = solver.pressure.sy
        a, b = (s + 1) * sy, (e + 1) * sy
        self.u = solver._wu.flat_rows(s, e)
        self.v = solver._wv.flat_rows(s, e)
        self.w = solver._ww.flat_rows(s, e)
        self.t = solver._wt.flat_rows(s, e)
        self.mobility = solver._wd.flat_rows(s, e)
        self.upwind = tuple(m[a:b] for m in solver._upwind)
        self.acc = solver._adv.flat[a:b]
        self.acc_int = solver._adv.interior[s:e]
        self.buoy = solver._buoy.flat[a:b]
        self.div = solver._div.flat[a:b]
        self.lap = solver._lapb[a:b]
        self.t1 = solver._f1[a:b]
        self.t2 = solver._f2[a:b]


class ProjectionSolver:
    """The serial reference solver."""

    def __init__(
        self,
        mesh: StructuredMesh,
        bcs: BoundaryConditions,
        config: Optional[SolverConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.mesh = mesh
        self.bcs = bcs
        self.config = config if config is not None else SolverConfig()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._resistance = bcs.resistance_mask(mesh)

        # Grid scalars, hoisted so stencils never recompute them.
        self._dx, self._dy, self._dz = mesh.dx, mesh.dy, mesh.dz
        self._dx2, self._dy2, self._dz2 = (
            mesh.dx**2, mesh.dy**2, mesh.dz**2,
        )
        self._2dx, self._2dy, self._2dz = 2 * mesh.dx, 2 * mesh.dy, 2 * mesh.dz

        # Inlet boundary values, hoisted out of apply_velocity_bcs: the
        # mesh, wind, and profile are fixed for the solver's lifetime, so
        # cell_centers()/profile() run once here instead of 3x per step.
        _, _, z = mesh.cell_centers()
        cu, cv = bcs.inlet.components
        profile = bcs.inlet.profile(z)
        self._inlet_u = profile * cu   # (nz,), broadcast over y at the face
        self._inlet_v = profile * cv

        # Persistent padded scratch for every stencilled field.
        shape = mesh.shape
        self._wu = PaddedScratch(shape)
        self._wv = PaddedScratch(shape)
        self._ww = PaddedScratch(shape)
        self._wt = PaddedScratch(shape)
        self._wd = PaddedScratch(shape)   # mobility (damp) for Poisson coeffs

        # Interior-shaped scratch.
        self._t1 = np.zeros(shape)
        self._t2 = np.zeros(shape)
        self._drag = np.zeros(shape)
        self._damp = np.zeros(shape)
        self._dtdamp = np.zeros(shape)
        self._ustar = np.zeros(shape)
        self._vstar = np.zeros(shape)
        self._wstar = np.zeros(shape)
        self._tstar = np.zeros(shape)

        # Padded scratch for the field stencils, which run on the flat
        # padded-row layout (see _StencilRows). The advection
        # result doubles as the predictor accumulator, read back through
        # its interior view; buoyancy is padded so it joins the flat sum.
        self._adv = PaddedScratch(shape)
        self._buoy = PaddedScratch(shape)
        self._div = PaddedScratch(shape)
        n_padded = self._adv.flat.size
        self._lapb = np.zeros(n_padded)
        self._f1 = np.zeros(n_padded)
        self._f2 = np.zeros(n_padded)
        self._upwind = tuple(np.zeros(n_padded, dtype=bool) for _ in range(3))
        self._rows: dict[tuple[int, int], _StencilRows] = {}

        cfg = self.config
        self.pressure = PressureWorkspace(
            shape, cfg.sor_omega if cfg.pressure_solver == "sor" else None
        )
        #: Sweeps the last pressure solve actually ran (== the configured
        #: count for Jacobi; possibly fewer for SOR with a tolerance).
        self.last_pressure_sweeps = 0

    # -- stability ------------------------------------------------------------

    def max_stable_dt(self, safety: float = 0.5) -> float:
        """Advective CFL bound for the configured inlet speed."""
        umax = max(self.bcs.inlet.speed_mps, 0.1)
        m = self.mesh
        adv = min(m.dx, m.dy, m.dz) / umax
        diff = min(m.dx, m.dy, m.dz) ** 2 / (6 * NU_EFFECTIVE)
        return safety * min(adv, diff)

    # -- boundary application -----------------------------------------------------

    def apply_velocity_bcs(self, f: FlowFields) -> None:
        """Inlet/outlet/ground/top/side boundary values, in place."""
        # Inlet (x = 0 face); profile precomputed in __init__.
        f.u[0, :, :] = self._inlet_u[None, :]
        f.v[0, :, :] = self._inlet_v[None, :]
        f.w[0, :, :] = 0.0
        # Outlet (x = lx): zero-gradient.
        f.u[-1, :, :] = f.u[-2, :, :]
        f.v[-1, :, :] = f.v[-2, :, :]
        f.w[-1, :, :] = f.w[-2, :, :]
        # Side walls (y faces): zero-gradient (far-field).
        for arr in (f.u, f.v, f.w):
            arr[:, 0, :] = arr[:, 1, :]
            arr[:, -1, :] = arr[:, -2, :]
        # Ground (z = 0): no-slip. Top: free-slip (w = 0).
        f.u[:, :, 0] = 0.0
        f.v[:, :, 0] = 0.0
        f.w[:, :, 0] = 0.0
        f.w[:, :, -1] = 0.0

    def apply_temperature_bcs(self, f: FlowFields) -> None:
        f.temperature[0, :, :] = self.bcs.inlet.temperature_k
        f.temperature[-1, :, :] = f.temperature[-2, :, :]
        f.temperature[:, 0, :] = f.temperature[:, 1, :]
        f.temperature[:, -1, :] = f.temperature[:, -2, :]
        f.temperature[:, :, 0] = self.bcs.ground_temperature_k
        f.temperature[:, :, -1] = f.temperature[:, :, -2]

    # -- diagnostics ------------------------------------------------------------------

    def divergence(self, f: FlowFields) -> np.ndarray:
        """div(U) over all cells (freshly allocated; diagnostic API)."""
        self._load_velocity_buffers(f)
        r = self._stencil_rows(0, self.mesh.nx)
        self._divergence_rows(r, r.div)
        return self._div.interior.copy()

    def divergence_norm(self, f: FlowFields) -> float:
        """RMS divergence over interior cells."""
        self._load_velocity_buffers(f)
        r = self._stencil_rows(0, self.mesh.nx)
        self._divergence_rows(r, r.div)
        div = self._div.interior[1:-1, 1:-1, 1:-1]
        return float(np.sqrt(np.mean(div**2)))

    # -- buffered kernels (row-ranged; shared with the decomposed solver) -----

    def _load_velocity_buffers(self, f: FlowFields) -> None:
        """Halo refresh: copy current velocities into the padded scratch."""
        self._wu.load(f.u)
        self._wv.load(f.v)
        self._ww.load(f.w)

    def _load_transport_buffers(self, f: FlowFields) -> None:
        """Halo refresh for temperature transport: the temperature and the
        corrected velocities, which the advection reads in padded form."""
        self._load_velocity_buffers(f)
        self._wt.load(f.temperature)
        self._update_upwind_masks()

    def _update_upwind_masks(self) -> None:
        """Upwind masks from the loaded velocity buffers (flat layout)."""
        for ws, mask in zip((self._wu, self._wv, self._ww), self._upwind):
            np.greater(ws.flat, 0, out=mask)

    def _stencil_rows(self, s: int, e: int) -> _StencilRows:
        """The (cached) flat views for cell slab ``[s, e)``."""
        key = (s, e)
        if key not in self._rows:
            self._rows[key] = _StencilRows(self, s, e)
        return self._rows[key]

    def _advect_rows(
        self, nb: tuple[np.ndarray, ...], r: _StencilRows
    ) -> None:
        """First-order upwind ``(U . grad) f`` of the padded field whose
        flat views are ``nb``, into ``r.acc``; per-lane arithmetic is the
        reference ``_upwind_advect``'s, so interior lanes are bit-identical.
        """
        c, xp, xm, yp, ym, zp, zm = nb
        t1, out = r.t1, r.acc
        for axis, (vel, pos, mns, upwind, d) in enumerate((
            (r.u[0], xp, xm, r.upwind[0], self._dx),
            (r.v[0], yp, ym, r.upwind[1], self._dy),
            (r.w[0], zp, zm, r.upwind[2], self._dz),
        )):
            t2 = out if axis == 0 else r.t2
            np.subtract(c, mns, out=t1)
            np.divide(t1, d, out=t1)
            np.multiply(vel, t1, out=t1)       # vel * backward difference
            np.subtract(pos, c, out=t2)
            np.divide(t2, d, out=t2)
            np.multiply(vel, t2, out=t2)       # vel * forward difference
            np.copyto(t2, t1, where=upwind)    # upwind select
            if axis:
                np.add(out, t2, out=out)

    def _lap_rows(self, nb: tuple[np.ndarray, ...], r: _StencilRows) -> None:
        """7-point Laplacian of the padded field ``nb`` into ``r.lap``."""
        c, xp, xm, yp, ym, zp, zm = nb
        t1, t2, out = r.t1, r.t2, r.lap
        np.multiply(2, c, out=t1)
        np.subtract(xp, t1, out=out)
        np.add(out, xm, out=out)
        np.divide(out, self._dx2, out=out)
        np.subtract(yp, t1, out=t2)
        np.add(t2, ym, out=t2)
        np.divide(t2, self._dy2, out=t2)
        np.add(out, t2, out=out)
        np.subtract(zp, t1, out=t2)
        np.add(t2, zm, out=t2)
        np.divide(t2, self._dz2, out=t2)
        np.add(out, t2, out=out)

    def _divergence_rows(self, r: _StencilRows, out: np.ndarray) -> None:
        """div(U) from the loaded velocity buffers into the flat rows
        ``out``."""
        t1 = r.t1
        np.subtract(r.u[1], r.u[2], out=out)
        np.divide(out, self._2dx, out=out)
        np.subtract(r.v[3], r.v[4], out=t1)
        np.divide(t1, self._2dy, out=t1)
        np.add(out, t1, out=out)
        np.subtract(r.w[5], r.w[6], out=t1)
        np.divide(t1, self._2dz, out=t1)
        np.add(out, t1, out=out)

    def _update_damp_buoy(self, f: FlowFields) -> None:
        """Darcy-Forchheimer mobility and Boussinesq buoyancy, in place."""
        t1, t2 = self._t1, self._t2
        # |U| (seed FlowFields.speed() semantics).
        np.multiply(f.u, f.u, out=t1)
        np.multiply(f.v, f.v, out=t2)
        np.add(t1, t2, out=t1)
        np.multiply(f.w, f.w, out=t2)
        np.add(t1, t2, out=t1)
        np.sqrt(t1, out=t1)
        # drag = resistance * (nu*D + 0.5*F*|U|)
        np.multiply(0.5 * SCREEN_FORCHHEIMER, t1, out=t1)
        np.add(NU_AIR * SCREEN_DARCY, t1, out=t1)
        np.multiply(self._resistance, t1, out=self._drag)
        # damp = 1 / (1 + dt*drag)   (implicit sink)
        np.multiply(self.config.dt, self._drag, out=t1)
        np.add(1.0, t1, out=t1)
        np.divide(1.0, t1, out=self._damp)
        # buoyancy (padded, for the flat predictor sum)
        buoy = self._buoy
        np.subtract(
            f.temperature, self.config.reference_temperature_k,
            out=buoy.interior,
        )
        np.multiply(GRAVITY * BETA_AIR, buoy.flat, out=buoy.flat)

    def _predict_rows(self, s: int, e: int) -> None:
        """Predictor u* for x-rows ``[s, e)`` into the star scratch.

        Runs on the loaded velocity buffers, whose centre lanes are the
        current ``f.u``/``f.v``/``f.w``."""
        sl = slice(s, e)
        r = self._stencil_rows(s, e)
        acc, t2 = r.acc, r.t2
        for nb, star, buoyant in (
            (r.u, self._ustar, False),
            (r.v, self._vstar, False),
            (r.w, self._wstar, True),
        ):
            self._advect_rows(nb, r)
            self._lap_rows(nb, r)
            np.negative(acc, out=acc)
            np.multiply(NU_EFFECTIVE, r.lap, out=t2)
            np.add(acc, t2, out=acc)
            if buoyant:
                np.add(acc, r.buoy, out=acc)
            np.multiply(self.config.dt, acc, out=acc)
            np.add(nb[0], acc, out=acc)
            np.multiply(self._damp[sl], r.acc_int, out=star[sl])

    def _correct_rows(self, f: FlowFields, s: int, e: int) -> None:
        """Pressure-gradient correction for x-rows ``[s, e)``, in place."""
        sl = slice(s, e)
        pw = self.pressure.src
        t1 = self._t1[sl]
        dtdamp = self._dtdamp[sl]
        for target, pos, mns, d in (
            (f.u, pw.xp, pw.xm, self._2dx),
            (f.v, pw.yp, pw.ym, self._2dy),
            (f.w, pw.zp, pw.zm, self._2dz),
        ):
            np.subtract(pos[sl], mns[sl], out=t1)
            np.divide(t1, d, out=t1)
            np.multiply(t1, dtdamp, out=t1)
            np.subtract(target[sl], t1, out=target[sl])

    def _temperature_rows(self, f: FlowFields, s: int, e: int) -> None:
        """Energy transport for x-rows ``[s, e)`` into the T star scratch.

        Needs the temperature buffer and the corrected velocities loaded."""
        sl = slice(s, e)
        r = self._stencil_rows(s, e)
        acc, t2 = r.acc, r.t2
        self._advect_rows(r.t, r)
        self._lap_rows(r.t, r)
        np.negative(acc, out=acc)
        np.multiply(ALPHA_EFFECTIVE, r.lap, out=t2)
        np.add(acc, t2, out=acc)
        np.multiply(self.config.dt, acc, out=acc)
        np.add(f.temperature[sl], r.acc_int, out=self._tstar[sl])

    def _load_poisson(self, f: FlowFields) -> None:
        """Per-step pressure setup: coefficients, rhs, and initial guess,
        loaded on the full plan's flat rows."""
        ws = self.pressure
        plan = ws.full_plan
        r = self._stencil_rows(0, self.mesh.nx)
        self._wd.load(self._damp)
        c, *nbs = r.mobility
        spacing2 = (self._dx2, self._dx2, self._dy2, self._dy2,
                    self._dz2, self._dz2)
        for nb, d2, coef in zip(nbs, spacing2, plan.coef):
            np.add(nb, c, out=coef)
            np.multiply(coef, 0.5, out=coef)
            np.divide(coef, d2, out=coef)
        np.copyto(plan.den, plan.coef[0])
        for coef in plan.coef[1:]:
            np.add(plan.den, coef, out=plan.den)
        # rhs = div(u*) / dt from the (already loaded) velocity buffers.
        self._divergence_rows(r, plan.rhs)
        np.divide(plan.rhs, self.config.dt, out=plan.rhs)
        if self.config.pressure_solver == "sor":
            ws.load_sor_operands()
        ws.load(f.p)

    def _solve_pressure_serial(self) -> None:
        """Run the configured pressure solver on the loaded workspace."""
        tr = self._tracer
        ws = self.pressure
        if not tr.enabled:
            self._solve_pressure_impl((ws.full_plan,), ws.refresh_ghosts)
            return
        t0 = time.perf_counter()
        self._solve_pressure_impl((ws.full_plan,), ws.refresh_ghosts)
        wall = time.perf_counter() - t0
        sweeps = self.last_pressure_sweeps
        m = tr.metrics
        m.counter("cfd.poisson.sweeps", help="pressure sweeps run").inc(
            sweeps, solver=self.config.pressure_solver
        )
        m.histogram(
            "cfd.poisson.solve_wall_s",
            help="wall time of one pressure solve",
            buckets=WALL_BUCKETS,
        ).observe(wall, solver=self.config.pressure_solver)
        if sweeps:
            m.histogram(
                "cfd.poisson.sweep_wall_s",
                help="wall time per pressure sweep",
                buckets=WALL_BUCKETS,
            ).observe(wall / sweeps, solver=self.config.pressure_solver)

    def _solve_pressure_impl(
        self, plans: Sequence[_RowPlan], refresh: Callable[[], None]
    ) -> None:
        """The pressure iteration loop, for serial and decomposed solves.

        Before every sweep (Jacobi) or colour half-pass (SOR), ``refresh``
        updates the ghost layer -- the decomposed solver's halo exchange
        -- and the kernel then fans out over ``plans``, which cover all
        rows. Both kernels write the other ping-pong buffer.
        """
        ws = self.pressure
        cfg = self.config
        if cfg.pressure_solver == "jacobi":
            for _ in range(cfg.poisson_iterations):
                refresh()
                for plan in plans:
                    ws.sweep(plan)
                ws.swap()
            self.last_pressure_sweeps = cfg.poisson_iterations
            return
        # Red-black SOR with optional residual early exit.
        sweeps = 0
        while sweeps < cfg.poisson_iterations:
            for colour in (0, 1):
                refresh()
                for plan in plans:
                    ws.sor_half_pass(plan, colour)
                ws.swap()
            sweeps += 1
            if (
                cfg.poisson_tolerance > 0.0
                and sweeps % cfg.poisson_check_every == 0
                and self.pressure_residual_norm() <= cfg.poisson_tolerance
            ):
                break
        self.last_pressure_sweeps = sweeps

    def pressure_residual_norm(self) -> float:
        """RMS residual of the pressure equation for the current iterate."""
        return self.pressure.residual_norm()

    # -- the time step --------------------------------------------------------------------

    def step(self, f: FlowFields) -> None:
        """Advance one time step in place (allocation-free hot path).

        Instrumentation lives in this thin wrapper so the untraced path
        (``NULL_TRACER``, the default) pays exactly one attribute load and
        branch over the raw kernel -- asserted <3% by
        ``benchmarks/test_obs_overhead.py``, which times ``_step_impl``
        directly as the baseline.
        """
        tr = self._tracer
        if not tr.enabled:
            self._step_impl(f)
            return
        span = tr.span("cfd.step", category="cfd")
        self._step_impl(f)
        span.annotate(pressure_sweeps=self.last_pressure_sweeps).end()
        m = tr.metrics
        m.counter("cfd.steps", help="time steps advanced").inc()
        m.histogram(
            "cfd.step.wall_s", help="wall time of one step",
            buckets=WALL_BUCKETS,
        ).observe(span.duration_wall)

    def _step_impl(self, f: FlowFields) -> None:
        m = self.mesh
        self.apply_velocity_bcs(f)
        self.apply_temperature_bcs(f)

        # Predictor: advection + diffusion + screen sink + buoyancy. The
        # Darcy-Forchheimer sink is treated implicitly (divide by
        # 1 + dt*drag): screen cells have dt*drag >> 1, where an explicit
        # sink oscillates and blows up.
        self._load_velocity_buffers(f)
        self._update_upwind_masks()
        self._update_damp_buoy(f)
        self._predict_rows(0, m.nx)
        f.u, self._ustar = self._ustar, f.u
        f.v, self._vstar = self._vstar, f.v
        f.w, self._wstar = self._wstar, f.w
        self.apply_velocity_bcs(f)

        # Variable-coefficient pressure Poisson: div(damp * grad p) =
        # div(u*) / dt. The mobility beta = damp enters both the operator
        # and the corrector; with a plain Laplacian the projection would
        # push full-strength flow through the screen, cancelling the drag.
        # Neumann on all faces except the Dirichlet outlet.
        self._load_velocity_buffers(f)
        self._load_poisson(f)
        self._solve_pressure_serial()
        np.copyto(f.p, self.pressure.src.interior)

        # Corrector, damped by the same mobility.
        self.pressure.refresh_ghosts()
        np.multiply(self.config.dt, self._damp, out=self._dtdamp)
        self._correct_rows(f, 0, m.nx)
        self.apply_velocity_bcs(f)

        # Temperature transport (with the corrected velocities).
        self._load_transport_buffers(f)
        self._temperature_rows(f, 0, m.nx)
        f.temperature, self._tstar = self._tstar, f.temperature
        self.apply_temperature_bcs(f)

    def _check_finite(self, f: FlowFields, context: str) -> None:
        bad = nonfinite_fields(f)
        if bad:
            raise FloatingPointError(
                f"solver diverged ({context}): non-finite field(s) "
                f"{', '.join(bad)}; reduce dt (configured {self.config.dt}, "
                f"stable bound {self.max_stable_dt():.4f})"
            )

    def solve(self, fields: Optional[FlowFields] = None) -> SolverResult:
        """Run the configured number of steps from rest (or given fields)."""
        f = fields if fields is not None else FlowFields(self.mesh).initialize_uniform(
            temperature=self.bcs.interior_temperature_k
        )
        result = SolverResult(fields=f)
        for _ in range(self.config.n_steps):
            self.step(f)
            result.divergence_history.append(self.divergence_norm(f))
            result.kinetic_energy_history.append(f.kinetic_energy())
            result.steps_run += 1
        self._check_finite(f, f"after {result.steps_run} steps")
        return result

    def solve_to_steady(
        self,
        fields: Optional[FlowFields] = None,
        tolerance: float = 0.01,
        check_every: int = 25,
        max_steps: int = 2000,
    ) -> SolverResult:
        """Run until the kinetic energy plateaus (quasi-steady state).

        Steadiness criterion: the relative KE change over ``check_every``
        steps falls below ``tolerance``. The turbulent wake never goes
        exactly steady, so the tolerance is a band, not a fixed point;
        ``max_steps`` bounds the cost either way.
        """
        if not 0.0 < tolerance < 1.0:
            raise ValueError(f"tolerance out of (0,1): {tolerance}")
        if check_every < 1 or max_steps < check_every:
            raise ValueError("need max_steps >= check_every >= 1")
        f = fields if fields is not None else FlowFields(self.mesh).initialize_uniform(
            temperature=self.bcs.interior_temperature_k
        )
        result = SolverResult(fields=f)
        last_ke = f.kinetic_energy()
        while result.steps_run < max_steps:
            for _ in range(check_every):
                self.step(f)
                result.steps_run += 1
            ke = f.kinetic_energy()
            result.kinetic_energy_history.append(ke)
            result.divergence_history.append(self.divergence_norm(f))
            if last_ke > 0 and abs(ke - last_ke) / last_ke < tolerance:
                break
            last_ke = ke
        self._check_finite(f, "before reaching steady state")
        return result
