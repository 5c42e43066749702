"""Quality guard for the fabric twin's pressure solve: its fixed 5-sweep
red-black SOR must project at least as well as the 40 Jacobi sweeps it
replaced, judged by post-solve divergence. The Jacobi baseline runs on the
reference kernels (``tests/cfd/reference.py``), bit for bit what the
solver's Jacobi mode computed."""

import pytest

from repro.cfd import ProjectionSolver
from repro.cfd.case import TelemetrySnapshot, case_from_telemetry
from repro.core.config import TWIN_SOLVER, FabricConfig
from tests.cfd.reference import jacobi_final_divergence

#: The twin's previous pressure solve: 40 fixed Jacobi sweeps per step.
JACOBI_SWEEPS = 40


def _twin_solver(wind_mps: float) -> ProjectionSolver:
    """A twin solver as the fabric builds it (wind-aligned case)."""
    snapshot = TelemetrySnapshot(
        wind_speed_mps=wind_mps,
        wind_direction_deg=0.0,
        exterior_temperature_k=293.15,
        interior_temperature_k=295.65,
        relative_humidity=0.55,
    )
    return case_from_telemetry(
        snapshot, mesh=FabricConfig().twin_mesh, config=TWIN_SOLVER
    ).build_solver()


@pytest.mark.slow
@pytest.mark.parametrize(
    "wind_mps", [2.0, 4.5, 7.5], ids=["calm", "moderate", "windy"]
)
def test_twin_sor_divergence_no_worse_than_jacobi_40(wind_mps):
    twin = _twin_solver(wind_mps)
    assert twin.config.poisson_iterations == 5
    sor_divergence = twin.solve().final_divergence
    assert sor_divergence <= jacobi_final_divergence(twin, JACOBI_SWEEPS)
