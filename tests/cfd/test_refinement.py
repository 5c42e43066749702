"""Mesh-refinement robustness: the physics should not depend on resolution.

Not a formal convergence study (the coarse meshes here are far from the
asymptotic regime), but the quantities xGFabric *acts on* -- the interior
wind attenuation and the breach signature -- must be stable in sign and
rough magnitude when the grid is refined, or the digital twin would be an
artifact of the discretization.
"""

import warnings

import numpy as np
import pytest

from repro.cfd import (
    BoundaryConditions,
    ProjectionSolver,
    SolverConfig,
    WindInlet,
)
from repro.cfd.boundary import cups_screen_walls
from repro.cfd.mesh import StructuredMesh

warnings.filterwarnings("ignore", category=RuntimeWarning)


def interior_attenuation(mesh: StructuredMesh, n_steps: int = 180) -> float:
    """Mean interior speed / mean exterior speed at matched heights."""
    bcs = BoundaryConditions(
        inlet=WindInlet(speed_mps=3.0), screens=cups_screen_walls(mesh)
    )
    # dt scaled to resolution for CFL safety.
    solver = ProjectionSolver(
        mesh, bcs,
        SolverConfig(dt=0.9 * ProjectionSolver(
            mesh, bcs, SolverConfig()
        ).max_stable_dt(0.5), n_steps=n_steps, poisson_iterations=30),
    )
    fields = solver.solve().fields
    speed = fields.speed()
    # Interior: inside the structure footprint, below the roof, above ground.
    lo_x = int(30.0 / mesh.dx)
    hi_x = int(110.0 / mesh.dx)
    lo_z = max(1, int(2.0 / mesh.dz))
    hi_z = max(lo_z + 1, int(7.0 / mesh.dz))
    interior = speed[lo_x:hi_x, lo_x:hi_x, lo_z:hi_z].mean()
    # Exterior: upstream of the structure at the same heights.
    ext_x = max(1, int(5.0 / mesh.dx))
    exterior = speed[ext_x, :, lo_z:hi_z].mean()
    return float(interior / exterior)


class TestRefinementRobustness:
    @pytest.fixture(scope="class")
    def attenuations(self):
        # Vertical resolution must resolve the 9 m interior (dz <= 2.5).
        coarse = StructuredMesh(14, 14, 12, lx=140.0, ly=140.0, lz=30.0)
        medium = StructuredMesh(28, 28, 24, lx=140.0, ly=140.0, lz=30.0)
        return {
            "coarse": interior_attenuation(coarse),
            "medium": interior_attenuation(medium),
        }

    @pytest.mark.slow
    def test_screen_attenuates_at_every_resolution(self, attenuations):
        for label, value in attenuations.items():
            assert 0.1 < value < 0.95, f"{label}: attenuation {value}"

    @pytest.mark.slow
    def test_attenuation_stable_under_refinement(self, attenuations):
        coarse, medium = attenuations["coarse"], attenuations["medium"]
        # Same regime within a factor of ~1.8 -- the twin's per-station
        # ratio calibration absorbs exactly this kind of residual error.
        assert 0.55 < coarse / medium < 1.8

    @pytest.mark.slow
    def test_breach_signature_stable_under_refinement(self):
        deltas = {}
        for label, mesh in [
            ("coarse", StructuredMesh(14, 14, 12, lx=140.0, ly=140.0, lz=30.0)),
            ("medium", StructuredMesh(28, 28, 24, lx=140.0, ly=140.0, lz=30.0)),
        ]:
            bcs = BoundaryConditions(
                inlet=WindInlet(3.0), screens=cups_screen_walls(mesh)
            )
            cfg = SolverConfig(dt=0.05, n_steps=150, poisson_iterations=30)
            intact = ProjectionSolver(mesh, bcs, cfg).solve().fields
            breached = ProjectionSolver(mesh, bcs.breach_any(0), cfg).solve().fields
            lo_x = int(25.0 / mesh.dx)
            hi_x = int(45.0 / mesh.dx)
            span = slice(int(25.0 / mesh.dy), int(115.0 / mesh.dy))
            k = slice(max(1, int(2.0 / mesh.dz)), max(2, int(7.0 / mesh.dz)))
            deltas[label] = float(
                np.abs(
                    breached.speed()[lo_x:hi_x, span, k]
                    - intact.speed()[lo_x:hi_x, span, k]
                ).max()
            )
        # A full breach is detectable (>0.3 m/s) at both resolutions.
        assert deltas["coarse"] > 0.3
        assert deltas["medium"] > 0.3
