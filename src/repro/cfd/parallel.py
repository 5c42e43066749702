"""Slab domain decomposition with halo exchange.

The decomposition mirrors OpenFOAM's ``decomposePar`` along the streamwise
axis: rank ``r`` owns the x-slab ``[start_r, end_r)`` and computes every
stencil from its slab plus one halo cell per side. Halo values come from the
neighbouring slab (interior faces) or edge replication (domain boundary) --
exactly the padded-array convention of the serial solver, which makes the
decomposed step **bit-identical** to the serial step (property-tested).

The decomposed step runs the *same* row-ranged kernels as
:class:`~repro.cfd.solver.ProjectionSolver` -- each slab is just an x-row
range ``(s, e)`` passed to the shared buffered kernels, and the pressure
solve is the serial solver's own iteration loop fanned out over per-slab
plans -- so serial and decomposed execution cannot drift apart. A "halo
exchange" is the in-place ghost refresh of the shared padded scratch
(O(n^2) face traffic, the shared-memory analogue of six ``MPI_Sendrecv``
faces); per-slab pressure sweep plans are built once and reused for every
sweep of every step.

Execution: slabs run one after another in one thread. A thread pool over
the slabs never beat that on a 2-core host (28x28x12: 56 ms on 2 threads
vs 52 ms sequential; 56x56x24: 312 vs 286 ms), so the decomposition
demonstrates the halo-exchange structure and its bit parity, not a
speed-up; the paper-scale wall-clock behaviour (Fig. 7) is the domain of
:mod:`repro.cfd.perfmodel` -- a laptop cannot impersonate a 64-core
cluster node.

Diagnostics that need global state (divergence norms, CFL maxima) are
computed over the assembled global array, the shared-memory analogue of
``MPI_Allreduce``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cfd.boundary import BoundaryConditions
from repro.cfd.fields import FlowFields
from repro.cfd.mesh import StructuredMesh
from repro.cfd.solver import (
    ProjectionSolver,
    SolverConfig,
    SolverResult,
    nonfinite_fields,
)


def decompose_slabs(nx: int, n_ranks: int) -> list[tuple[int, int]]:
    """Split ``nx`` cells into ``n_ranks`` contiguous x-slabs.

    Sizes differ by at most one cell; every rank gets at least one cell,
    so ``n_ranks`` may not exceed ``nx``.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1: {n_ranks}")
    if n_ranks > nx:
        raise ValueError(f"cannot give {n_ranks} ranks at least one of {nx} cells")
    base, extra = divmod(nx, n_ranks)
    slabs = []
    start = 0
    for r in range(n_ranks):
        size = base + (1 if r < extra else 0)
        slabs.append((start, start + size))
        start += size
    return slabs


class DecomposedSolver:
    """Domain-decomposed twin of :class:`ProjectionSolver`.

    Parameters
    ----------
    mesh / bcs / config:
        As for the serial solver.
    n_ranks:
        Number of x-slabs.
    """

    def __init__(
        self,
        mesh: StructuredMesh,
        bcs: BoundaryConditions,
        config: Optional[SolverConfig] = None,
        n_ranks: int = 2,
    ) -> None:
        self.mesh = mesh
        self.bcs = bcs
        self.config = config if config is not None else SolverConfig()
        self.slabs = decompose_slabs(mesh.nx, n_ranks)
        self.n_ranks = n_ranks
        self._serial = ProjectionSolver(mesh, bcs, self.config)
        self.halo_exchanges = 0
        # Per-slab pressure sweep plans, built once and reused every sweep.
        self._plans = tuple(
            self._serial.pressure.plan(s, e) for s, e in self.slabs
        )

    # -- slab machinery ----------------------------------------------------------

    def _slab_run(self, fn: Callable[[int, int], None]) -> None:
        """Run ``fn(s, e)`` for every slab."""
        for s, e in self.slabs:
            fn(s, e)

    def _exchange_halos(self, *loads: Callable[[], None]) -> None:
        """One counted halo exchange: refresh the given padded buffers."""
        for load in loads:
            load()
        self.halo_exchanges += 1

    # -- the decomposed step -----------------------------------------------------

    def step(self, f: FlowFields) -> None:
        ser, cfg, ws = self._serial, self.config, self._serial.pressure
        ser.apply_velocity_bcs(f)
        ser.apply_temperature_bcs(f)

        # Halo exchange: refresh the padded velocity buffers once per
        # stencil family, then fan the shared row-ranged kernels out over
        # the slabs.
        self._exchange_halos(lambda: ser._load_velocity_buffers(f))
        ser._update_upwind_masks()
        ser._update_damp_buoy(f)
        self._slab_run(ser._predict_rows)
        f.u, ser._ustar = ser._ustar, f.u
        f.v, ser._vstar = ser._vstar, f.v
        f.w, ser._wstar = ser._wstar, f.w
        ser.apply_velocity_bcs(f)

        # Variable-coefficient Poisson (div(damp grad p) = div(u*)/dt): the
        # serial iteration loop over the slab plans, with a halo exchange
        # (ghost refresh) before every sweep or SOR colour half-pass; the
        # outlet Dirichlet face anchors the field.
        ser._load_velocity_buffers(f)
        ser._load_poisson(f)
        ser._solve_pressure_impl(
            self._plans, lambda: self._exchange_halos(ws.refresh_ghosts)
        )
        np.copyto(f.p, ws.src.interior)

        # Corrector, damped by the same mobility.
        self._exchange_halos(ws.refresh_ghosts)
        np.multiply(cfg.dt, ser._damp, out=ser._dtdamp)
        self._slab_run(lambda s, e: ser._correct_rows(f, s, e))
        ser.apply_velocity_bcs(f)

        # Temperature transport (with the corrected velocities).
        self._exchange_halos(lambda: ser._load_transport_buffers(f))
        self._slab_run(lambda s, e: ser._temperature_rows(f, s, e))
        f.temperature, ser._tstar = ser._tstar, f.temperature
        ser.apply_temperature_bcs(f)

    @property
    def last_pressure_sweeps(self) -> int:
        """Sweeps the last pressure solve ran (see the serial solver)."""
        return self._serial.last_pressure_sweeps

    def pressure_residual_norm(self) -> float:
        """RMS residual of the pressure equation for the current iterate."""
        return self._serial.pressure_residual_norm()

    def solve(self, fields: Optional[FlowFields] = None) -> SolverResult:
        f = fields if fields is not None else FlowFields(self.mesh).initialize_uniform(
            temperature=self.bcs.interior_temperature_k
        )
        result = SolverResult(fields=f)
        for _ in range(self.config.n_steps):
            self.step(f)
            result.divergence_history.append(self._serial.divergence_norm(f))
            result.kinetic_energy_history.append(f.kinetic_energy())
            result.steps_run += 1
        bad = nonfinite_fields(f)
        if bad:
            raise FloatingPointError(
                f"decomposed solver diverged: non-finite field(s) "
                f"{', '.join(bad)}; reduce dt (configured {self.config.dt})"
            )
        return result
