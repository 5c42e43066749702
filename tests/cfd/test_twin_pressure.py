"""Quality guard for the fabric twin's pressure solve: its fixed 5-sweep
red-black SOR must project at least as well as the 40 Jacobi sweeps it
replaced, judged by post-solve divergence."""

import pytest

from repro.cfd import ProjectionSolver, SolverConfig
from repro.cfd.case import TelemetrySnapshot, case_from_telemetry
from repro.core.config import FabricConfig

#: The twin's previous pressure solve: 40 fixed Jacobi sweeps per step.
JACOBI_40 = SolverConfig(dt=0.1, n_steps=200, poisson_iterations=40)


def _twin_solver(wind_mps: float, config: SolverConfig) -> ProjectionSolver:
    """A twin solver as the fabric builds it (wind-aligned case)."""
    snapshot = TelemetrySnapshot(
        wind_speed_mps=wind_mps,
        wind_direction_deg=0.0,
        exterior_temperature_k=293.15,
        interior_temperature_k=295.65,
        relative_humidity=0.55,
    )
    mesh = FabricConfig().twin_mesh
    return case_from_telemetry(snapshot, mesh=mesh, config=config).build_solver()


@pytest.mark.slow
@pytest.mark.parametrize(
    "wind_mps", [2.0, 4.5, 7.5], ids=["calm", "moderate", "windy"]
)
def test_twin_sor_divergence_no_worse_than_jacobi_40(wind_mps):
    twin = _twin_solver(wind_mps, FabricConfig().twin_solver)
    reference = _twin_solver(wind_mps, JACOBI_40)
    sor_result = twin.solve()
    jacobi_result = reference.solve()
    assert twin.last_pressure_sweeps == 5
    assert sor_result.final_divergence <= jacobi_result.final_divergence
