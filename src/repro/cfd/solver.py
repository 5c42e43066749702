"""Incompressible Boussinesq projection solver.

Chorin splitting per time step:

1. **Predictor** -- explicit upwind advection, central diffusion, the
   screen's Darcy-Forchheimer momentum sink, and Boussinesq buoyancy give a
   provisional velocity ``u*``.
2. **Pressure Poisson** -- ``div(damp grad p) = div(u*) / dt`` solved by a
   fixed number of red-black SOR sweeps (``SolverConfig.poisson_iterations``
   at omega = :data:`SOR_OMEGA`) with homogeneous Neumann boundaries and a
   Dirichlet outlet. The count is fixed, so neither the cost nor the
   result of a solve depends on an exit test; the divergence is reported,
   not hidden.
3. **Corrector** -- ``u = u* - dt * grad(p)`` projects the field toward
   divergence-freedom (mass conservation; property-tested).
4. **Energy** -- temperature advects/diffuses with a Dirichlet ground.

Every stencil reads one edge-replicated ghost cell per side. Everything is
vectorized NumPy -- no Python loops over cells.

**Kernel architecture (allocation-free).** The hot path runs on persistent
scratch owned by the solver:

* each advected/diffused field lives in a :class:`~repro.cfd.fields.PaddedScratch`
  whose ghost layer is refreshed in place (six face copies, O(n^2));
* every stencil routine writes through preallocated ``out=`` arrays, so a
  time step performs no full-field allocations;
* the stencils -- advection, diffusion, divergence, the Poisson
  coefficients and the SOR half-passes -- operate on *flat contiguous*
  row views of the padded buffers (:class:`_StencilRows`,
  :class:`PressureWorkspace`): a neighbour is the same rows shifted by a
  constant offset, so every ufunc pass is a contiguous streaming
  operation rather than a strided 3-D walk. The ghost y/z lanes inside
  those rows compute garbage that is never read back; a result leaves
  the padded layout through its interior view;
* red-black SOR runs as one fused ping-pong pass per colour,
  ``dst = keep*src + sum_d cw_d*nb_d - rw``, on operands rebuilt once per
  step (:meth:`PressureWorkspace.load_sor_operands`).

The seed ``np.pad`` kernels live on in ``tests/cfd/reference.py``: a
reference step built on them, in the fused half-pass's per-cell operation
order, pins this solver bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

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

#: Red-black SOR over-relaxation factor, tuned on post-step divergence
#: (see ``docs/calibration.md``).
SOR_OMEGA = 1.7

#: Boussinesq reference temperature (K).
REFERENCE_TEMPERATURE_K = 293.15


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
        Red-black SOR sweeps per step, fixed (one sweep = a red and a
        black half-pass, each about the cost of one Jacobi sweep). Judged
        by post-step divergence, 5 sweeps match or beat 40 Jacobi sweeps
        on the meshes used here; the fabric twin runs exactly 5.
    """

    dt: float = 0.05
    n_steps: int = 100
    poisson_iterations: int = 30

    def __post_init__(self) -> None:
        for name in ("dt", "n_steps", "poisson_iterations"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite: {getattr(self, name)}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive: {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1: {self.n_steps}")
        if self.poisson_iterations < 1:
            raise ValueError("poisson_iterations must be >= 1")


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


class PressureWorkspace:
    """Flat-contiguous scratch for the red-black SOR pressure solve.

    Holds two ping-pong padded pressure buffers, flat padded coefficient /
    rhs / denominator arrays and the per-colour operands of the fused SOR
    half-pass. ``coef``/``rhs``/``den`` are views of the rows that cover
    the interior x-planes, ghost y/z lanes included (their results are
    garbage, overwritten by the next ghost refresh and never read); every
    operand is a contiguous 1-D slice, so each pass streams through memory
    with no strided inner loops. The solver loads the operands on those
    rows each step, so the ghost lanes hold finite garbage; the x ghost
    planes stay 0 (denominator 1) and every lane stays finite. Sweeps
    allocate nothing.
    """

    def __init__(self, shape: tuple[int, int, int]) -> None:
        nx, ny, nz = shape
        pshape = (nx + 2, ny + 2, nz + 2)
        self.bufs = (PaddedScratch(shape), PaddedScratch(shape))
        self.cur = 0
        rows = self.bufs[0].rows

        def padded(fill: float) -> np.ndarray:
            return np.full(pshape, fill).ravel()

        self.coef_flat = tuple(padded(0.0) for _ in range(6))
        self.rhs_flat = padded(0.0)
        self.den_flat = padded(1.0)
        self.coef = tuple(c[rows] for c in self.coef_flat)
        self.rhs = self.rhs_flat[rows]
        self.den = self.den_flat[rows]
        self._tmp = np.zeros(self.den.size)

        # Fused SOR operands per colour of the global checkerboard
        # (cell-index parity; ghost cells are in neither colour, so their
        # lanes copy through): keep = 1 - omega*mask is fixed here, the
        # coefficient weights cw_d = omega*mask*coef_d/den and the rhs
        # weight rw = omega*mask*rhs/den are rebuilt each step by
        # load_sor_operands().
        ii, jj, kk = np.indices(shape, sparse=True)
        red = np.broadcast_to((ii + jj + kk) % 2 == 0, shape)
        masks = []
        for colour in (red, ~red):
            m = np.zeros(pshape)
            m[1:-1, 1:-1, 1:-1] = SOR_OMEGA * colour
            masks.append(m.ravel())
        self._omega_mask = tuple(masks)
        self._scale = np.zeros_like(self.den_flat)
        self._sor_operands = tuple(
            (
                1.0 - m,
                tuple(np.zeros_like(self.den_flat) for _ in range(6)),
                np.zeros_like(self.den_flat),
            )
            for m in masks
        )
        # The same operands on the interior rows, per colour.
        self._sor_rows = tuple(
            (keep[rows], tuple(c[rows] for c in cw), rw[rows])
            for keep, cw, rw in self._sor_operands
        )
        # One (reads, dst, src) triple per ping-pong direction.
        self._dirs = []
        for si, di in ((0, 1), (1, 0)):
            src, *reads = self.bufs[si].flat_rows()
            self._dirs.append((tuple(reads), self.bufs[di].flat[rows], src))

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

    def load_sor_operands(self) -> None:
        """Per-step SOR setup from the loaded coefficients and rhs."""
        scale = self._scale
        for m, (_, cw, rw) in zip(self._omega_mask, self._sor_operands):
            np.divide(m, self.den_flat, out=scale)
            for c, w in zip(self.coef_flat, cw):
                np.multiply(c, scale, out=w)
            np.multiply(self.rhs_flat, scale, out=rw)

    def sor_half_pass(self, colour: int) -> None:
        """One red-black half-pass, source to destination:
        ``dst = keep*src + sum_d cw_d*nb_d - rw``, i.e.
        ``p + omega*(jacobi(p) - p)`` on ``colour`` cells and a copy on the
        others. Same-colour cells are never stencil neighbours, so this is
        Gauss-Seidel within a colour."""
        reads, dst, src = self._dirs[self.cur]
        keep, cw, rw = self._sor_rows[colour]
        tmp = self._tmp
        np.multiply(keep, src, out=dst)
        for c, r in zip(cw, reads):
            np.multiply(c, r, out=tmp)
            np.add(dst, tmp, out=dst)
        np.subtract(dst, rw, out=dst)

    def solve(self, sweeps: int) -> None:
        """Run ``sweeps`` red-black sweeps on the loaded operands, with a
        ghost refresh before every half-pass."""
        for _ in range(sweeps):
            for colour in (0, 1):
                self.refresh_ghosts()
                self.sor_half_pass(colour)
                self.swap()


class _StencilRows:
    """Flat views for the field stencils (advection, diffusion,
    divergence, Poisson coefficients).

    The same row layout as :class:`PressureWorkspace`: every operand is a
    contiguous slice of a flattened padded buffer, and results on the
    ghost y/z lanes are garbage that is never read back. ``u``/``v``/
    ``w``/``t`` hold ``(centre, xp, xm, yp, ym, zp, zm)`` of each padded
    field (``mobility`` is the padded damping factor the Poisson
    coefficients average); ``acc_int`` is the interior view of the
    accumulator rows, through which a result leaves the padded layout.
    """

    __slots__ = ("u", "v", "w", "t", "mobility", "upwind", "acc", "acc_int",
                 "buoy", "div", "lap", "t1", "t2")

    def __init__(self, solver: "ProjectionSolver") -> None:
        rows = solver._adv.rows
        self.u = solver._wu.flat_rows()
        self.v = solver._wv.flat_rows()
        self.w = solver._ww.flat_rows()
        self.t = solver._wt.flat_rows()
        self.mobility = solver._wd.flat_rows()
        self.upwind = tuple(m[rows] for m in solver._upwind)
        self.acc = solver._adv.flat[rows]
        self.acc_int = solver._adv.interior
        self.buoy = solver._buoy.flat[rows]
        self.div = solver._div.flat[rows]
        self.lap = solver._lapb[rows]
        self.t1 = solver._f1[rows]
        self.t2 = solver._f2[rows]


class ProjectionSolver:
    """The projection solver the twin runs."""

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
        self._rows = _StencilRows(self)

        self.pressure = PressureWorkspace(shape)

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

    def divergence_norm(self, f: FlowFields) -> float:
        """RMS divergence over interior cells."""
        self._load_velocity_buffers(f)
        self._divergence_rows(self._rows.div)
        div = self._div.interior[1:-1, 1:-1, 1:-1]
        return float(np.sqrt(np.mean(div**2)))

    # -- buffered kernels ---------------------------------------------------------

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

    def _advect_rows(self, nb: tuple[np.ndarray, ...]) -> None:
        """First-order upwind ``(U . grad) f`` of the padded field whose
        flat views are ``nb``, into the accumulator rows: per cell,
        ``vel * backward`` where ``vel > 0`` else ``vel * forward``."""
        r = self._rows
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

    def _lap_rows(self, nb: tuple[np.ndarray, ...]) -> None:
        """7-point Laplacian of the padded field ``nb`` into the lap rows."""
        r = self._rows
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

    def _divergence_rows(self, out: np.ndarray) -> None:
        """div(U) from the loaded velocity buffers into the flat rows
        ``out``."""
        r = self._rows
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
        np.subtract(f.temperature, REFERENCE_TEMPERATURE_K, out=buoy.interior)
        np.multiply(GRAVITY * BETA_AIR, buoy.flat, out=buoy.flat)

    def _predict(self) -> None:
        """Predictor u* into the star scratch.

        Runs on the loaded velocity buffers, whose centre lanes are the
        current ``f.u``/``f.v``/``f.w``."""
        r = self._rows
        acc, t2 = r.acc, r.t2
        for nb, star, buoyant in (
            (r.u, self._ustar, False),
            (r.v, self._vstar, False),
            (r.w, self._wstar, True),
        ):
            self._advect_rows(nb)
            self._lap_rows(nb)
            np.negative(acc, out=acc)
            np.multiply(NU_EFFECTIVE, r.lap, out=t2)
            np.add(acc, t2, out=acc)
            if buoyant:
                np.add(acc, r.buoy, out=acc)
            np.multiply(self.config.dt, acc, out=acc)
            np.add(nb[0], acc, out=acc)
            np.multiply(self._damp, r.acc_int, out=star)

    def _correct(self, f: FlowFields) -> None:
        """Pressure-gradient correction, in place."""
        pw = self.pressure.src
        t1 = self._t1
        for target, pos, mns, d in (
            (f.u, pw.xp, pw.xm, self._2dx),
            (f.v, pw.yp, pw.ym, self._2dy),
            (f.w, pw.zp, pw.zm, self._2dz),
        ):
            np.subtract(pos, mns, out=t1)
            np.divide(t1, d, out=t1)
            np.multiply(t1, self._dtdamp, out=t1)
            np.subtract(target, t1, out=target)

    def _transport_temperature(self, f: FlowFields) -> None:
        """Energy transport into the T star scratch.

        Needs the temperature buffer and the corrected velocities loaded."""
        r = self._rows
        acc, t2 = r.acc, r.t2
        self._advect_rows(r.t)
        self._lap_rows(r.t)
        np.negative(acc, out=acc)
        np.multiply(ALPHA_EFFECTIVE, r.lap, out=t2)
        np.add(acc, t2, out=acc)
        np.multiply(self.config.dt, acc, out=acc)
        np.add(f.temperature, r.acc_int, out=self._tstar)

    def _load_poisson(self, f: FlowFields) -> None:
        """Per-step pressure setup: coefficients, rhs, SOR operands and
        the initial guess."""
        ws = self.pressure
        self._wd.load(self._damp)
        c, *nbs = self._rows.mobility
        spacing2 = (self._dx2, self._dx2, self._dy2, self._dy2,
                    self._dz2, self._dz2)
        for nb, d2, coef in zip(nbs, spacing2, ws.coef):
            np.add(nb, c, out=coef)
            np.multiply(coef, 0.5, out=coef)
            np.divide(coef, d2, out=coef)
        np.copyto(ws.den, ws.coef[0])
        for coef in ws.coef[1:]:
            np.add(ws.den, coef, out=ws.den)
        # rhs = div(u*) / dt from the (already loaded) velocity buffers.
        self._divergence_rows(ws.rhs)
        np.divide(ws.rhs, self.config.dt, out=ws.rhs)
        ws.load_sor_operands()
        ws.load(f.p)

    def _solve_pressure(self) -> None:
        """Run the fixed SOR sweeps on the loaded workspace."""
        tr = self._tracer
        sweeps = self.config.poisson_iterations
        if not tr.enabled:
            self.pressure.solve(sweeps)
            return
        t0 = time.perf_counter()
        self.pressure.solve(sweeps)
        wall = time.perf_counter() - t0
        m = tr.metrics
        m.counter("cfd.poisson.sweeps", help="pressure sweeps run").inc(sweeps)
        m.histogram(
            "cfd.poisson.solve_wall_s",
            help="wall time of one pressure solve",
            buckets=WALL_BUCKETS,
        ).observe(wall)
        m.histogram(
            "cfd.poisson.sweep_wall_s",
            help="wall time per pressure sweep",
            buckets=WALL_BUCKETS,
        ).observe(wall / sweeps)

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
        span.annotate(pressure_sweeps=self.config.poisson_iterations).end()
        m = tr.metrics
        m.counter("cfd.steps", help="time steps advanced").inc()
        m.histogram(
            "cfd.step.wall_s", help="wall time of one step",
            buckets=WALL_BUCKETS,
        ).observe(span.duration_wall)

    def _step_impl(self, f: FlowFields) -> None:
        self.apply_velocity_bcs(f)
        self.apply_temperature_bcs(f)

        # Predictor: advection + diffusion + screen sink + buoyancy. The
        # Darcy-Forchheimer sink is treated implicitly (divide by
        # 1 + dt*drag): screen cells have dt*drag >> 1, where an explicit
        # sink oscillates and blows up.
        self._load_velocity_buffers(f)
        self._update_upwind_masks()
        self._update_damp_buoy(f)
        self._predict()
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
        self._solve_pressure()
        np.copyto(f.p, self.pressure.src.interior)

        # Corrector, damped by the same mobility.
        self.pressure.refresh_ghosts()
        np.multiply(self.config.dt, self._damp, out=self._dtdamp)
        self._correct(f)
        self.apply_velocity_bcs(f)

        # Temperature transport (with the corrected velocities).
        self._load_transport_buffers(f)
        self._transport_temperature(f)
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
