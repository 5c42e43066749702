"""Flow field containers and persistent padded scratch buffers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cfd.mesh import StructuredMesh


class PaddedScratch:
    """A persistent edge-padded buffer with cached neighbour views.

    The solver's stencils read one ghost cell per side. The seed kernels
    rebuilt that ghost layer with ``np.pad`` (a fresh allocation plus a
    full-domain copy) on *every* call; this buffer is allocated once and
    the ghost layer is refreshed in place by copying the six boundary
    faces -- O(n^2) traffic instead of O(n^3).

    The cached views (``interior`` and the six shifted neighbours
    ``xp``/``xm``/``yp``/``ym``/``zp``/``zm``) are plain slices of the
    padded array, so they stay valid for the buffer's lifetime and can be
    used as ufunc operands without per-call slicing.

    Ghost semantics match ``np.pad(mode="edge")`` exactly at every cell a
    stencil reads: sequential face replication (x, then y, then z) fills
    face ghosts with the adjacent interior value, and edges/corners are
    never read by the 7-point stencils.
    """

    __slots__ = ("padded", "flat", "interior", "rows",
                 "xp", "xm", "yp", "ym", "zp", "zm")

    def __init__(self, shape: tuple[int, int, int]) -> None:
        nx, ny, nz = shape
        self.padded = np.zeros((nx + 2, ny + 2, nz + 2))
        q = self.padded
        self.flat = q.ravel()
        self.interior = q[1:-1, 1:-1, 1:-1]
        #: The flat rows of the interior x-planes (padded x-planes
        #: ``1 .. nx``, ghost y/z lanes included).
        sy = (ny + 2) * (nz + 2)
        self.rows = slice(sy, (nx + 1) * sy)
        self.xp = q[2:, 1:-1, 1:-1]
        self.xm = q[:-2, 1:-1, 1:-1]
        self.yp = q[1:-1, 2:, 1:-1]
        self.ym = q[1:-1, :-2, 1:-1]
        self.zp = q[1:-1, 1:-1, 2:]
        self.zm = q[1:-1, 1:-1, :-2]

    def flat_rows(self) -> tuple[np.ndarray, ...]:
        """Flat views ``(centre, xp, xm, yp, ym, zp, zm)``: the
        :attr:`rows` of the flattened buffer and the same rows shifted by
        one neighbour along each axis. Every view is a contiguous 1-D
        slice, so stencils over them stream through memory; results on the
        ghost lanes are garbage for the caller to discard."""
        _, padded_ny, padded_nz = self.padded.shape
        sz = padded_nz              # flat stride of one y step
        sy = padded_ny * padded_nz  # flat stride of one x step
        a, b = self.rows.start, self.rows.stop
        q = self.flat
        return (
            q[a:b],
            q[a + sy:b + sy], q[a - sy:b - sy],
            q[a + sz:b + sz], q[a - sz:b - sz],
            q[a + 1:b + 1], q[a - 1:b - 1],
        )

    def load(self, values: np.ndarray) -> None:
        """Copy a field into the interior and refresh the ghost layer."""
        np.copyto(self.interior, values)
        self.refresh_ghosts()

    def refresh_ghosts(self) -> None:
        """Edge-replicate the six boundary faces in place."""
        q = self.padded
        q[0] = q[1]
        q[-1] = q[-2]
        q[:, 0] = q[:, 1]
        q[:, -1] = q[:, -2]
        q[:, :, 0] = q[:, :, 1]
        q[:, :, -1] = q[:, :, -2]

    def refresh_ghosts_outlet(self) -> None:
        """Ghost refresh with the outlet Dirichlet face (x = lx): the
        ghost plane holds the *negated* last interior plane, anchoring
        p = 0 on the face (see ``solver._pad_pressure``)."""
        self.refresh_ghosts()
        q = self.padded
        np.negative(q[-2], out=q[-1])


@dataclass
class FlowFields:
    """Cell-centered flow state: velocity, pressure, temperature.

    Arrays are C-ordered ``(nx, ny, nz)`` float64 -- contiguous along z,
    which is the axis the vertical-diffusion stencils sweep (cache-friendly,
    per the HPC guides).
    """

    mesh: StructuredMesh
    u: np.ndarray = field(init=False)  # x-velocity (m/s)
    v: np.ndarray = field(init=False)  # y-velocity
    w: np.ndarray = field(init=False)  # z-velocity
    p: np.ndarray = field(init=False)  # kinematic pressure (m^2/s^2)
    temperature: np.ndarray = field(init=False)  # K

    def __post_init__(self) -> None:
        shape = self.mesh.shape
        self.u = np.zeros(shape)
        self.v = np.zeros(shape)
        self.w = np.zeros(shape)
        self.p = np.zeros(shape)
        self.temperature = np.full(shape, 293.15)

    def initialize_uniform(
        self, u: float = 0.0, v: float = 0.0, w: float = 0.0,
        temperature: float = 293.15,
    ) -> "FlowFields":
        self.u[:] = u
        self.v[:] = v
        self.w[:] = w
        self.temperature[:] = temperature
        return self

    def speed(self) -> np.ndarray:
        """Velocity magnitude |U| per cell."""
        return np.sqrt(self.u**2 + self.v**2 + self.w**2)

    def kinetic_energy(self) -> float:
        """Total kinetic energy (per unit density), for convergence checks."""
        return float(
            0.5 * np.sum(self.u**2 + self.v**2 + self.w**2) * self.mesh.cell_volume
        )

    def copy(self) -> "FlowFields":
        out = FlowFields(self.mesh)
        out.u = self.u.copy()
        out.v = self.v.copy()
        out.w = self.w.copy()
        out.p = self.p.copy()
        out.temperature = self.temperature.copy()
        return out
