"""Tests for what-if CFD breach localization."""

import warnings

import pytest

from repro.cfd.case import TelemetrySnapshot, case_from_telemetry
from repro.cfd.mesh import StructuredMesh
from repro.cfd.solver import SolverConfig
from repro.core import DigitalTwin
from repro.sensors.station import (
    BREACH_ATTENUATION,
    INTACT_ATTENUATION,
    StationReading,
    station_grid,
)

warnings.filterwarnings("ignore", category=RuntimeWarning)

WIND = 4.0


@pytest.fixture(scope="module")
def twin():
    stations = station_grid()
    twin = DigitalTwin(stations, residual_threshold_mps=1.0, persistence=1)
    snap = TelemetrySnapshot(
        wind_speed_mps=WIND, wind_direction_deg=0.0,
        exterior_temperature_k=295.0, interior_temperature_k=297.0,
        relative_humidity=0.5,
    )
    case = case_from_telemetry(
        snap,
        mesh=StructuredMesh(14, 14, 12, lx=140.0, ly=140.0, lz=30.0),
        config=SolverConfig(dt=0.1, n_steps=80, poisson_iterations=20),
    )
    fields = case.build_solver().solve().fields
    twin.update(case, fields)
    # Calibration pass under intact conditions.
    twin.compare(0.0, WIND, _readings({i: INTACT_ATTENUATION for i in range(4)}))
    return twin


def _readings(attenuation_by_station: dict[int, float], t=600.0):
    out = []
    for idx, attenuation in attenuation_by_station.items():
        station_id = f"cups-int-{idx}"
        out.append(StationReading(
            station_id=station_id, time_s=t,
            wind_speed_mps=WIND * attenuation,
            wind_direction_deg=0.0, temperature_k=296.0,
            relative_humidity=0.5, interior=True,
        ))
    return out


class TestLocalization:
    @pytest.mark.parametrize("breached_panel", [0, 1, 3])
    def test_identifies_breached_panel_with_strong_signature(
        self, twin, breached_panel
    ):
        # Station cups-int-k sits nearest panel k: the breach raises that
        # station's local attenuation toward BREACH_ATTENUATION. Panels 0/1
        # (windward/leeward) and 3 produce strong CFD signatures under the
        # case's +x wind.
        attenuations = {i: INTACT_ATTENUATION for i in range(4)}
        attenuations[breached_panel] = BREACH_ATTENUATION
        ranking = twin.localize_by_simulation(WIND, _readings(attenuations))
        assert ranking[0][0] == breached_panel
        assert len(ranking) == 4
        # Scores sorted ascending (best match first).
        scores = [s for _, s in ranking]
        assert scores == sorted(scores)

    def test_crosswind_panel_is_ambiguous_but_ranked_high(self, twin):
        # A south-wall (panel 2) breach is a crosswind vent under +x wind:
        # the what-if CFD predicts almost no interior speedup there, so
        # the spatial signature is weak and localization can only narrow
        # it to the top candidates -- the robot's camera settles the rest
        # (which is exactly the paper's division of labour).
        attenuations = {i: INTACT_ATTENUATION for i in range(4)}
        attenuations[2] = BREACH_ATTENUATION
        ranking = twin.localize_by_simulation(WIND, _readings(attenuations))
        assert 2 in [p for p, _ in ranking[:2]]

    def test_variant_solves_cached(self, twin):
        attenuations = {i: INTACT_ATTENUATION for i in range(4)}
        attenuations[0] = BREACH_ATTENUATION
        twin.localize_by_simulation(WIND, _readings(attenuations))
        assert set(twin._variant_probes) == {0, 1, 2, 3}
        probes_before = dict(twin._variant_probes)
        twin.localize_by_simulation(WIND, _readings(attenuations))
        assert twin._variant_probes == probes_before  # reused, not re-solved

    def test_candidate_subset(self, twin):
        attenuations = {i: INTACT_ATTENUATION for i in range(4)}
        attenuations[1] = BREACH_ATTENUATION
        ranking = twin.localize_by_simulation(
            WIND, _readings(attenuations), candidate_panels=[0, 1]
        )
        assert [p for p, _ in ranking][0] == 1
        assert len(ranking) == 2

    def test_validation(self, twin):
        with pytest.raises(ValueError, match="interior readings"):
            twin.localize_by_simulation(WIND, [])
        with pytest.raises(ValueError, match="candidate"):
            twin.localize_by_simulation(
                WIND, _readings({0: 0.5}), candidate_panels=[]
            )

    def test_requires_prediction(self):
        fresh = DigitalTwin(station_grid())
        with pytest.raises(RuntimeError):
            fresh.localize_by_simulation(WIND, _readings({0: 0.5}))
