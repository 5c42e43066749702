"""Structured 3-D mesh over the screen-house domain.

The CUPS structure is ~100,000 m^3; the default domain is 100 m x 100 m x
10 m with the screen house occupying its interior. Cell-centered collocated
layout; uniform spacing per axis (the blockMesh-style grading the real case
uses does not change any behaviour the evaluation depends on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StructuredMesh:
    """A uniform cell-centered grid.

    Attributes
    ----------
    nx, ny, nz:
        Cell counts per axis (x = streamwise, y = spanwise, z = vertical).
    lx, ly, lz:
        Physical extents in meters.
    """

    nx: int
    ny: int
    nz: int
    lx: float = 100.0
    ly: float = 100.0
    lz: float = 10.0

    def __post_init__(self) -> None:
        for label, n in (("nx", self.nx), ("ny", self.ny), ("nz", self.nz)):
            if n < 3:
                raise ValueError(f"{label} must be >= 3 (got {n})")
        for label, length in (("lx", self.lx), ("ly", self.ly), ("lz", self.lz)):
            if not (math.isfinite(length) and length > 0):
                raise ValueError(
                    f"{label} must be positive and finite (got {length})"
                )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def dz(self) -> float:
        return self.lz / self.nz

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy * self.dz

    @property
    def volume(self) -> float:
        return self.lx * self.ly * self.lz

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1-D center coordinate arrays (x, y, z).

        Memoized: the mesh is immutable, so the coordinates are computed
        once per mesh and returned as read-only arrays (hot paths that ask
        for geometry repeatedly get cache hits instead of allocations).
        """
        cached = self.__dict__.get("_centers")
        if cached is None:
            x = (np.arange(self.nx) + 0.5) * self.dx
            y = (np.arange(self.ny) + 0.5) * self.dy
            z = (np.arange(self.nz) + 0.5) * self.dz
            for arr in (x, y, z):
                arr.flags.writeable = False
            cached = (x, y, z)
            object.__setattr__(self, "_centers", cached)
        return cached

    def locate(self, x: float, y: float, z: float) -> tuple[int, int, int]:
        """Cell index containing a physical point."""
        if not (0 <= x <= self.lx and 0 <= y <= self.ly and 0 <= z <= self.lz):
            raise ValueError(
                f"point ({x}, {y}, {z}) outside domain "
                f"[0,{self.lx}]x[0,{self.ly}]x[0,{self.lz}]"
            )
        i = min(int(x / self.dx), self.nx - 1)
        j = min(int(y / self.dy), self.ny - 1)
        k = min(int(z / self.dz), self.nz - 1)
        return i, j, k

    def refine(self, factor: int) -> "StructuredMesh":
        """A mesh with ``factor`` times the resolution per axis."""
        if factor < 1:
            raise ValueError(f"refinement factor must be >= 1: {factor}")
        return StructuredMesh(
            self.nx * factor, self.ny * factor, self.nz * factor,
            self.lx, self.ly, self.lz,
        )


#: The laptop-scale default used by tests and examples. The paper-scale mesh
#: (millions of cells) exists only inside the performance model.
def default_mesh(resolution: int = 1) -> StructuredMesh:
    """The screen-house domain at a test-friendly resolution.

    The domain (140 m x 140 m x 30 m) encloses a 100 m x 100 m x 9 m screen
    structure (~100,000 m^3, the paper's scale) with enough clearance that
    wind can divert over and around it -- as the real atmosphere does.
    """
    return StructuredMesh(
        nx=28 * resolution, ny=28 * resolution, nz=12 * resolution,
        lx=140.0, ly=140.0, lz=30.0,
    )
