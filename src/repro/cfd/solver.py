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
* the field stencils -- advection, diffusion, divergence -- operate on
  *flat contiguous* row views of the padded buffers
  (:class:`_StencilRows`): a neighbour is the same rows shifted by a
  constant offset, so every ufunc pass is a contiguous streaming
  operation rather than a strided 3-D walk. The ghost y/z lanes inside
  those rows compute garbage that is never read back; a result leaves
  the padded layout through its interior view. Upwind advection takes
  one difference per axis, on rows extended by that axis's stride: the
  backward difference at a cell is the forward difference one neighbour
  back;
* red-black SOR runs on colour-packed pressure (:class:`PressureWorkspace`):
  each half-pass updates only its own colour, in place,
  ``own = keep*own + sum_d cw_d*nb_d - rw``, on about half the rows, with
  operands built at half length once per step;
* a solve applies the boundary conditions and loads the stencil buffers
  once, before its first step: every step ends in exactly that state, so
  the next starts at the mobility. Divergence and kinetic energy are
  computed once, of the final fields.

The seed ``np.pad`` kernels live on in ``tests/cfd/reference.py``: a
reference step built on them, in the half-pass's per-cell operation
order, pins this solver bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

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
        for name in ("n_steps", "poisson_iterations"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer: {value!r}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive: {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1: {self.n_steps}")
        if self.poisson_iterations < 1:
            raise ValueError("poisson_iterations must be >= 1")


@dataclass
class SolverResult:
    """Outcome of a solve: the final fields and their diagnostics (RMS
    divergence over interior cells, total kinetic energy)."""

    fields: FlowFields
    steps_run: int
    final_divergence: float
    final_kinetic_energy: float


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


class _Colour:
    """One colour of the packed pressure: its slots, the SOR operands on
    its sweep, and the map of the face ghosts it reads (see
    :class:`PressureWorkspace`)."""

    __slots__ = ("p", "mobility", "cells", "sweep", "own", "rhs_at",
                 "omega", "keep", "cw", "rw", "tmp", "reads",
                 "mobility_reads", "ghost_src", "ghost_dst", "ghost_buf",
                 "outlet_buf")


class PressureWorkspace:
    """Colour-packed scratch for the red-black SOR pressure solve.

    The padded pressure is laid out with odd flat strides: the z lane and
    the x-plane stride are padded to odd lengths. A cell's colour is then
    the parity of its flat index -- red (even ``i+j+k``) cells sit at odd
    flat indices -- so each colour packs into one contiguous array, red
    slot ``r`` holding flat ``2r+1`` and black slot ``b`` flat ``2b``.
    All six neighbours of a cell have the other colour, at constant slot
    offsets: for a flat offset ``o``, red slot ``r`` reads black slot
    ``r + (1+o)/2`` and black slot ``b`` reads red slot ``b + (o-1)/2``.

    A half-pass therefore updates only its own colour, in place, with
    contiguous passes over the slots from its first to its last interior
    cell: red-black is Gauss-Seidel within a colour. The ghost and padding
    slots inside that sweep carry ``keep = 1`` and zero weights, so they
    keep their (finite) values. The face ghosts a colour reads live in
    the other colour's array; :meth:`refresh_ghosts` sets them through a
    small index map before each half-pass. The operands are built once
    per step, at half length, from a packed mobility in which every slot
    holds the mobility of its nearest cell (edge replication at the face
    ghosts, and positive everywhere). :meth:`unpack` writes both colours
    into :attr:`padded`, every face ghost current, for the corrector.
    Sweeps allocate nothing; inside them only the ghost refresh indexes.
    """

    def __init__(self, mesh: StructuredMesh) -> None:
        nx, ny, nz = mesh.shape
        lane = (nz + 2) | 1              # odd z-lane length
        plane = ((ny + 2) * lane) | 1    # odd x-plane stride
        size = (nx + 2) * plane
        self._flat = np.zeros(size)
        item = self._flat.itemsize
        #: The padded pressure on the odd-strided layout, filled by
        #: :meth:`unpack`; edge and corner ghosts are never read.
        self.padded = np.lib.stride_tricks.as_strided(
            self._flat, shape=(nx + 2, ny + 2, nz + 2),
            strides=(plane * item, lane * item, item),
        )
        q = self.padded
        self.interior = q[1:-1, 1:-1, 1:-1]
        #: ``(plus, minus)`` neighbour views of the interior, per axis.
        self.neighbours = (
            (q[2:, 1:-1, 1:-1], q[:-2, 1:-1, 1:-1]),
            (q[1:-1, 2:, 1:-1], q[1:-1, :-2, 1:-1]),
            (q[1:-1, 1:-1, 2:], q[1:-1, 1:-1, :-2]),
        )
        self._spacing2 = (mesh.dx**2, mesh.dx**2, mesh.dy**2, mesh.dy**2,
                          mesh.dz**2, mesh.dz**2)
        offsets = (plane, -plane, lane, -lane, 1, -1)  # xp, xm, yp, ym, zp, zm

        # Flat index of every interior cell, and each face's cells with
        # the flat offset of their ghost, the Dirichlet outlet last.
        cells = (
            np.arange(plane, (nx + 1) * plane, plane)[:, None, None]
            + np.arange(lane, (ny + 1) * lane, lane)[:, None]
            + np.arange(1, nz + 1)
        )
        faces = (
            (cells[0], -plane), (cells[:, 0], -lane), (cells[:, -1], lane),
            (cells[:, :, 0], -1), (cells[:, :, -1], 1), (cells[-1], plane),
        )
        face_cells = np.concatenate([c.ravel() for c, _ in faces])
        ghosts = np.concatenate([(c + o).ravel() for c, o in faces])
        n_neumann = face_cells.size - cells[-1].size

        self._colours = (_Colour(), _Colour())  # red, black
        longest = 0
        for parity, c in zip((1, 0), self._colours):
            own = cells[cells % 2 == parity]
            c.sweep = slice(own[0] // 2, own[-1] // 2 + 1)
            longest = max(longest, c.sweep.stop - c.sweep.start)
            # Each slot's nearest cell: itself inside, the adjacent cell
            # at a face ghost.
            big_i, rem = np.divmod(np.arange(parity, size, 2), plane)
            big_j, big_k = np.divmod(rem, lane)
            i = np.clip(big_i - 1, 0, nx - 1)
            j = np.clip(big_j - 1, 0, ny - 1)
            k = np.clip(big_k - 1, 0, nz - 1)
            c.cells = (i * ny + j) * nz + k
            inside = (i == big_i - 1) & (j == big_j - 1) & (k == big_k - 1)
            c.omega = SOR_OMEGA * inside[c.sweep]
            c.keep = 1.0 - c.omega
            # The same cells' flat index in a PaddedScratch (the rhs).
            c.rhs_at = (((i + 1) * (ny + 2) + j + 1) * (nz + 2) + k + 1)[c.sweep]
            c.p = np.zeros(c.cells.size)
            c.mobility = np.zeros(c.cells.size)
            c.own = c.p[c.sweep]
            c.cw = tuple(np.zeros(c.own.size) for _ in offsets)
            c.rw = np.zeros(c.own.size)
            mine = face_cells % 2 == parity
            c.ghost_src = face_cells[mine] // 2
            c.ghost_dst = ghosts[mine] // 2
            c.ghost_buf = np.zeros(c.ghost_src.size)
            c.outlet_buf = c.ghost_buf[np.count_nonzero(mine[:n_neumann]):]
        tmp = np.zeros(longest)
        for parity, c, other in zip((1, 0), self._colours, self._colours[::-1]):
            a, b = c.sweep.start, c.sweep.stop
            shifts = [(parity + o) // 2 for o in offsets]
            c.reads = tuple(other.p[a + s:b + s] for s in shifts)
            c.mobility_reads = tuple(other.mobility[a + s:b + s] for s in shifts)
            c.tmp = tmp[:b - a]
        self._unpack = tuple(
            (self._flat[parity::2], c.p) for parity, c in zip((1, 0), self._colours)
        )

    def load_operands(self, mobility: np.ndarray, rhs: PaddedScratch) -> None:
        """Per-step SOR operands from the cell mobility and the
        right-hand side ``div(u*)/dt`` in ``rhs``'s interior.

        Per cell, in the reference order: ``coef_d = (nb_d + c)*0.5/d^2``,
        ``den`` their sum over xp, xm, yp, ym, zp, zm, ``scale =
        omega*mask/den``, ``cw_d = coef_d*scale`` and ``rw = rhs*scale``.
        """
        # Every index is in range by construction; "clip" spares take()
        # the copy through a temporary that bounds checking makes.
        cells = mobility.reshape(-1)
        for c in self._colours:
            np.take(cells, c.cells, out=c.mobility, mode="clip")
        for c in self._colours:
            centre, scale = c.mobility[c.sweep], c.tmp
            for nb, d2, w in zip(c.mobility_reads, self._spacing2, c.cw):
                np.add(nb, centre, out=w)
                np.multiply(w, 0.5, out=w)
                np.divide(w, d2, out=w)
            np.add(c.cw[0], c.cw[1], out=scale)
            for w in c.cw[2:]:
                np.add(scale, w, out=scale)
            np.divide(c.omega, scale, out=scale)
            for w in c.cw:
                np.multiply(w, scale, out=w)
            np.take(rhs.flat, c.rhs_at, out=c.rw, mode="clip")
            np.multiply(c.rw, scale, out=c.rw)

    def load(self, p: np.ndarray) -> None:
        """Pack the initial guess ``p`` (cell values) into both colours."""
        cells = p.reshape(-1)
        for c in self._colours:
            np.take(cells, c.cells, out=c.p, mode="clip")

    def refresh_ghosts(self, colour: int) -> None:
        """Set the face ghosts ``colour`` (0 red, 1 black) reads. They live
        in the other colour's array and hold their cell's value: Neumann
        faces, and the Dirichlet outlet (x = lx), where the ghost is the
        cell's value negated so that p = 0 on the face."""
        c = self._colours[colour]
        np.take(c.p, c.ghost_src, out=c.ghost_buf, mode="clip")
        np.negative(c.outlet_buf, out=c.outlet_buf)
        self._colours[1 - colour].p[c.ghost_dst] = c.ghost_buf

    def sor_half_pass(self, colour: int) -> None:
        """One red-black half-pass, in place on ``colour``:
        ``own = keep*own + sum_d cw_d*nb_d - rw``, i.e.
        ``p + omega*(jacobi(p) - p)`` on its cells. Reads the face ghosts
        as they were last refreshed."""
        c = self._colours[colour]
        own, tmp = c.own, c.tmp
        np.multiply(c.keep, own, out=own)
        for w, nb in zip(c.cw, c.reads):
            np.multiply(w, nb, out=tmp)
            np.add(own, tmp, out=own)
        np.subtract(own, c.rw, out=own)

    def unpack(self) -> None:
        """Write both colours into :attr:`padded`, with every face ghost
        refreshed from the current cells."""
        for colour in (0, 1):
            self.refresh_ghosts(colour)
        for dst, p in self._unpack:
            np.copyto(dst, p)

    def solve(self, sweeps: int) -> None:
        """Run ``sweeps`` red-black sweeps (red first) on the loaded
        operands, then :meth:`unpack`."""
        for _ in range(sweeps):
            for colour in (0, 1):
                self.refresh_ghosts(colour)
                self.sor_half_pass(colour)
        self.unpack()


class _StencilRows:
    """Flat views for the field stencils (advection, diffusion,
    divergence).

    Every operand is a contiguous slice of a flattened padded buffer, and
    results on the ghost y/z lanes are garbage that is never read back.
    ``u``/``v``/``w``/``t`` hold ``(centre, xp, xm, yp, ym, zp, zm)`` of
    each padded field, and ``u_diff``/... its ``(f[n], f[n - s])`` pairs
    per axis, over the rows extended by that axis's stride ``s``;
    ``diff`` holds per axis the difference scratch ``d`` over that
    extended range with its ``(backward, forward)`` views ``d[n]`` and
    ``d[n + s]``. ``acc_int`` is the interior view of the accumulator
    rows, through which a result leaves the padded layout.
    """

    __slots__ = ("u", "v", "w", "t", "u_diff", "v_diff", "w_diff", "t_diff",
                 "diff", "upwind", "acc", "acc_int", "buoy", "div", "lap",
                 "t1", "t2")

    def __init__(self, solver: "ProjectionSolver") -> None:
        rows = solver._adv.rows
        a, b = rows.start, rows.stop
        _, ny2, nz2 = solver._adv.padded.shape
        strides = (ny2 * nz2, nz2, 1)

        def diffs(ws: PaddedScratch) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
            return tuple((ws.flat[a:b + s], ws.flat[a - s:b]) for s in strides)

        self.u = solver._wu.flat_rows()
        self.v = solver._wv.flat_rows()
        self.w = solver._ww.flat_rows()
        self.t = solver._wt.flat_rows()
        self.u_diff = diffs(solver._wu)
        self.v_diff = diffs(solver._wv)
        self.w_diff = diffs(solver._ww)
        self.t_diff = diffs(solver._wt)
        n, d = b - a, solver._f1
        self.diff = tuple((d[:n + s], d[:n], d[s:n + s]) for s in strides)
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
        # its interior view; buoyancy is padded so it joins the flat sum;
        # the divergence rows hold the pressure rhs during a step.
        self._adv = PaddedScratch(shape)
        self._buoy = PaddedScratch(shape)
        self._div = PaddedScratch(shape)
        n_padded = self._adv.flat.size
        self._lapb = np.zeros(n_padded)
        self._f1 = np.zeros(n_padded)
        self._f2 = np.zeros(n_padded)
        self._upwind = tuple(np.zeros(n_padded, dtype=bool) for _ in range(3))
        self._rows = _StencilRows(self)

        self.pressure = PressureWorkspace(mesh)

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

    def _advect_rows(self, diffs: tuple[tuple[np.ndarray, np.ndarray], ...]) -> None:
        """First-order upwind ``(U . grad) f`` of the padded field whose
        per-axis difference operands are ``diffs``, into the accumulator
        rows: per cell, ``vel * backward`` where ``vel > 0`` else
        ``vel * forward``. One difference per axis serves both terms: the
        forward difference at a cell is the backward one a stride on."""
        r = self._rows
        out, t2 = r.acc, r.t2
        for axis, ((hi, lo), (diff, back, fwd), vel, upwind, d) in enumerate(zip(
            diffs, r.diff, (r.u[0], r.v[0], r.w[0]), r.upwind,
            (self._dx, self._dy, self._dz),
        )):
            dst = out if axis == 0 else t2
            np.subtract(hi, lo, out=diff)
            np.divide(diff, d, out=diff)
            np.multiply(vel, fwd, out=dst)        # vel * forward difference
            np.multiply(vel, back, out=back)      # vel * backward difference
            np.copyto(dst, back, where=upwind)    # upwind select
            if axis:
                np.add(out, dst, out=out)

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
        for nb, diffs, star, buoyant in (
            (r.u, r.u_diff, self._ustar, False),
            (r.v, r.v_diff, self._vstar, False),
            (r.w, r.w_diff, self._wstar, True),
        ):
            self._advect_rows(diffs)
            self._lap_rows(nb)
            np.multiply(NU_EFFECTIVE, r.lap, out=t2)
            np.subtract(t2, acc, out=acc)         # -adv + nu*lap, exactly
            if buoyant:
                np.add(acc, r.buoy, out=acc)
            np.multiply(self.config.dt, acc, out=acc)
            np.add(nb[0], acc, out=acc)
            np.multiply(self._damp, r.acc_int, out=star)

    def _correct(self, f: FlowFields) -> None:
        """Pressure-gradient correction, in place."""
        t1 = self._t1
        for target, (pos, mns), d in zip(
            (f.u, f.v, f.w), self.pressure.neighbours,
            (self._2dx, self._2dy, self._2dz),
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
        self._advect_rows(r.t_diff)
        self._lap_rows(r.t)
        np.multiply(ALPHA_EFFECTIVE, r.lap, out=t2)
        np.subtract(t2, acc, out=acc)             # -adv + alpha*lap, exactly
        np.multiply(self.config.dt, acc, out=acc)
        np.add(f.temperature, r.acc_int, out=self._tstar)

    def _load_poisson(self, f: FlowFields) -> None:
        """Per-step pressure setup: rhs = div(u*)/dt from the (already
        loaded) velocity buffers, the SOR operands and the initial guess."""
        div = self._rows.div
        self._divergence_rows(div)
        np.divide(div, self.config.dt, out=div)
        self.pressure.load_operands(self._damp, self._div)
        self.pressure.load(f.p)

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

        Instrumentation lives in :meth:`_traced`, so the untraced path
        (``NULL_TRACER``, the default) pays one call and branch over the
        raw kernel -- asserted <3% by ``benchmarks/test_obs_overhead.py``,
        which times ``_step_impl`` directly as the baseline.
        """
        self._traced(self._step_impl, f)

    def _traced(self, body: Callable[[FlowFields], None], f: FlowFields) -> None:
        """Run one step's ``body`` on ``f``, as a ``cfd.step`` span when
        tracing."""
        tr = self._tracer
        if not tr.enabled:
            body(f)
            return
        span = tr.span("cfd.step", category="cfd")
        body(f)
        span.annotate(pressure_sweeps=self.config.poisson_iterations).end()
        m = tr.metrics
        m.counter("cfd.steps", help="time steps advanced").inc()
        m.histogram(
            "cfd.step.wall_s", help="wall time of one step",
            buckets=WALL_BUCKETS,
        ).observe(span.duration_wall)

    def _step_impl(self, f: FlowFields) -> None:
        self._enter(f)
        self._advance(f)

    def _enter(self, f: FlowFields) -> None:
        """The state a step starts from: boundary values applied, and the
        velocity buffers and upwind masks loaded from ``f``. Every step
        ends in it (the BCs are idempotent)."""
        self.apply_velocity_bcs(f)
        self.apply_temperature_bcs(f)
        self._load_velocity_buffers(f)
        self._update_upwind_masks()

    def _advance(self, f: FlowFields) -> None:
        """One step from the state :meth:`_enter` sets up, ending in it."""
        # Predictor: advection + diffusion + screen sink + buoyancy. The
        # Darcy-Forchheimer sink is treated implicitly (divide by
        # 1 + dt*drag): screen cells have dt*drag >> 1, where an explicit
        # sink oscillates and blows up.
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
        np.copyto(f.p, self.pressure.interior)

        # Corrector, damped by the same mobility.
        np.multiply(self.config.dt, self._damp, out=self._dtdamp)
        self._correct(f)
        self.apply_velocity_bcs(f)

        # Temperature transport (with the corrected velocities, which the
        # next step's predictor reads from the same buffers).
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
        """Run the configured number of steps from rest (or given fields),
        the same as that many :meth:`step` calls."""
        f = fields if fields is not None else FlowFields(self.mesh).initialize_uniform(
            temperature=self.bcs.interior_temperature_k
        )
        n_steps = self.config.n_steps
        self._enter(f)
        for _ in range(n_steps):
            self._traced(self._advance, f)
        self._check_finite(f, f"after {n_steps} steps")
        return SolverResult(
            fields=f,
            steps_run=n_steps,
            final_divergence=self.divergence_norm(f),
            final_kinetic_energy=f.kinetic_energy(),
        )
