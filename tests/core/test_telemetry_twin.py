"""Tests for telemetry wire format and the digital twin."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd.case import TelemetrySnapshot, case_from_telemetry
from repro.cfd.solver import SolverConfig
from repro.core import DigitalTwin, TelemetryRecord
from repro.sensors.station import StationReading, station_grid


def record(**overrides):
    base = dict(
        station_id="cups-int-0",
        time_s=300.0,
        wind_speed_mps=3.2,
        wind_direction_deg=120.0,
        temperature_k=295.5,
        relative_humidity=0.6,
        interior=True,
    )
    base.update(overrides)
    return TelemetryRecord(**base)


class TestTelemetryWire:
    def test_roundtrip(self):
        rec = record()
        assert TelemetryRecord.from_bytes(rec.to_bytes()) == rec

    def test_fits_element_size(self):
        from repro.core.telemetry import TELEMETRY_ELEMENT_SIZE

        assert len(record().to_bytes()) <= TELEMETRY_ELEMENT_SIZE

    def test_long_station_id_rejected(self):
        with pytest.raises(ValueError, match="too long"):
            record(station_id="x" * 32).to_bytes()

    @settings(max_examples=60, deadline=None)
    @given(
        wind=st.floats(min_value=0, max_value=60, allow_nan=False),
        direction=st.floats(min_value=0, max_value=360, allow_nan=False),
        temp=st.floats(min_value=230, max_value=330, allow_nan=False),
        rh=st.floats(min_value=0, max_value=1, allow_nan=False),
        interior=st.booleans(),
    )
    def test_roundtrip_property(self, wind, direction, temp, rh, interior):
        rec = record(
            wind_speed_mps=wind, wind_direction_deg=direction,
            temperature_k=temp, relative_humidity=rh, interior=interior,
        )
        assert TelemetryRecord.from_bytes(rec.to_bytes()) == rec


def make_twin_with_prediction(threshold=1.0, persistence=1):
    stations = station_grid()
    twin = DigitalTwin(
        stations, residual_threshold_mps=threshold, persistence=persistence
    )
    snap = TelemetrySnapshot(
        wind_speed_mps=3.0, wind_direction_deg=0.0,
        exterior_temperature_k=295.0, interior_temperature_k=297.0,
        relative_humidity=0.5,
    )
    case = case_from_telemetry(
        snap, config=SolverConfig(dt=0.1, n_steps=40, poisson_iterations=15)
    )
    fields = case.build_solver().solve().fields
    twin.update(case, fields)
    return twin, stations


def readings(stations, speeds, t=600.0):
    out = []
    for station in stations:
        if not station.interior:
            continue
        out.append(StationReading(
            station_id=station.station_id, time_s=t,
            wind_speed_mps=speeds[station.station_id],
            wind_direction_deg=0.0, temperature_k=296.0,
            relative_humidity=0.5, interior=True,
        ))
    return out


class TestDigitalTwin:
    def test_requires_interior_station(self):
        exterior_only = [s for s in station_grid() if not s.interior]
        with pytest.raises(ValueError):
            DigitalTwin(exterior_only)

    def test_compare_before_prediction_raises(self):
        twin = DigitalTwin(station_grid())
        with pytest.raises(RuntimeError, match="no CFD prediction"):
            twin.compare(0.0, 3.0, [])
        with pytest.raises(RuntimeError):
            twin.predict("cups-int-0", 3.0)

    def test_first_comparison_is_calibration_pass(self):
        twin, stations = make_twin_with_prediction()
        speeds = {f"cups-int-{i}": 1.5 for i in range(4)}
        c = twin.compare(600.0, 3.0, readings(stations, speeds))
        assert c.calibration_pass
        assert not c.breach_suspected

    def test_steady_conditions_stay_quiet(self):
        twin, stations = make_twin_with_prediction()
        speeds = {f"cups-int-{i}": 1.5 for i in range(4)}
        twin.compare(600.0, 3.0, readings(stations, speeds))
        for k in range(5):
            c = twin.compare(600.0 + 300 * k, 3.0, readings(stations, speeds))
            assert not c.breach_suspected

    def test_wind_change_does_not_alarm(self):
        # The multiplicative calibration must track wind swings.
        twin, stations = make_twin_with_prediction()
        twin.compare(600.0, 3.0, readings(stations, {f"cups-int-{i}": 1.5 for i in range(4)}))
        for wind in (4.0, 5.5, 2.0, 6.0):
            speeds = {f"cups-int-{i}": 0.5 * wind for i in range(4)}
            c = twin.compare(900.0, wind, readings(stations, speeds))
            assert not c.breach_suspected, f"false alarm at wind {wind}"

    def test_local_speedup_raises_suspicion_at_right_panel(self):
        twin, stations = make_twin_with_prediction(persistence=2)
        base = {f"cups-int-{i}": 1.5 for i in range(4)}
        twin.compare(600.0, 3.0, readings(stations, base))
        twin.compare(900.0, 3.0, readings(stations, base))
        # Breach near panel 0 (station cups-int-0): local wind jumps.
        breached = dict(base, **{"cups-int-0": 2.9})
        c1 = twin.compare(1200.0, 3.0, readings(stations, breached))
        assert not c1.breach_suspected  # persistence filter: first strike
        c2 = twin.compare(1500.0, 3.0, readings(stations, breached))
        assert c2.breach_suspected
        assert c2.suspect_station_id == "cups-int-0"
        assert c2.suspect_panel_index == 0

    def test_breach_not_calibrated_away(self):
        twin, stations = make_twin_with_prediction(persistence=1)
        base = {f"cups-int-{i}": 1.5 for i in range(4)}
        twin.compare(600.0, 3.0, readings(stations, base))
        breached = dict(base, **{"cups-int-1": 3.2})
        for k in range(6):
            c = twin.compare(900.0 + 300 * k, 3.0, readings(stations, breached))
            assert c.breach_suspected  # never absorbed

    def test_refresh_holds_out_suspected_station(self):
        twin, stations = make_twin_with_prediction(persistence=1)
        base = {f"cups-int-{i}": 1.5 for i in range(4)}
        twin.compare(600.0, 3.0, readings(stations, base))
        breached = dict(base, **{"cups-int-0": 3.2})
        c = twin.compare(900.0, 3.0, readings(stations, breached))
        assert c.breach_suspected
        # A CFD refresh arrives while the anomaly is active...
        snap = TelemetrySnapshot(
            wind_speed_mps=3.0, wind_direction_deg=0.0,
            exterior_temperature_k=295.0, interior_temperature_k=297.0,
            relative_humidity=0.5,
        )
        case = case_from_telemetry(
            snap, config=SolverConfig(dt=0.1, n_steps=40, poisson_iterations=15)
        )
        twin.update(case, case.build_solver().solve().fields)
        # ...and the suspicion survives the recalibration.
        c2 = twin.compare(1200.0, 3.0, readings(stations, breached))
        assert c2.breach_suspected
        assert c2.suspect_station_id == "cups-int-0"

    def test_unknown_station_rejected(self):
        twin, stations = make_twin_with_prediction()
        twin.compare(600.0, 3.0, readings(stations, {f"cups-int-{i}": 1.5 for i in range(4)}))
        ghost = StationReading(
            station_id="ghost", time_s=0.0, wind_speed_mps=1.0,
            wind_direction_deg=0.0, temperature_k=295.0,
            relative_humidity=0.5, interior=True,
        )
        with pytest.raises(KeyError):
            twin.compare(900.0, 3.0, [ghost])

    def test_validation(self):
        stations = station_grid()
        with pytest.raises(ValueError):
            DigitalTwin(stations, residual_threshold_mps=0.0)
        with pytest.raises(ValueError):
            DigitalTwin(stations, calibration_alpha=0.0)
        with pytest.raises(ValueError):
            DigitalTwin(stations, persistence=0)
