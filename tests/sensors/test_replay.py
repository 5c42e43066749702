"""Tests for historical weather replay and backtesting."""

import warnings

import numpy as np
import pytest

from repro.sensors.replay import ReplayWeather, load_trace, record_trace, save_trace
from repro.sensors.weather import SyntheticWeather, WeatherState

warnings.filterwarnings("ignore", category=RuntimeWarning)


def state(t, wind=3.0, direction=0.0, ext=295.0, interior=297.0, rh=0.5):
    return WeatherState(
        time_s=t, wind_speed_mps=wind, wind_direction_deg=direction,
        exterior_temperature_k=ext, interior_temperature_k=interior,
        relative_humidity=rh,
    )


class TestReplayWeather:
    def test_exact_points_reproduced(self):
        trace = [state(0.0, wind=2.0), state(600.0, wind=4.0)]
        replay = ReplayWeather(trace)
        assert replay.at(0.0).wind_speed_mps == 2.0
        assert replay.at(600.0).wind_speed_mps == 4.0
        assert replay.span_s == (0.0, 600.0)
        assert len(replay) == 2

    def test_linear_interpolation(self):
        replay = ReplayWeather([state(0.0, wind=2.0, ext=290.0),
                                state(600.0, wind=4.0, ext=300.0)])
        mid = replay.at(300.0)
        assert mid.wind_speed_mps == pytest.approx(3.0)
        assert mid.exterior_temperature_k == pytest.approx(295.0)
        assert mid.time_s == 300.0

    def test_clamped_outside_span(self):
        replay = ReplayWeather([state(100.0, wind=2.0), state(200.0, wind=4.0)])
        assert replay.at(0.0).wind_speed_mps == 2.0
        assert replay.at(999.0).wind_speed_mps == 4.0

    def test_unsorted_input_sorted(self):
        replay = ReplayWeather([state(600.0, wind=4.0), state(0.0, wind=2.0)])
        assert replay.at(300.0).wind_speed_mps == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            ReplayWeather([])
        with pytest.raises(ValueError, match="duplicate"):
            ReplayWeather([state(0.0), state(0.0)])
        with pytest.raises(ValueError, match="negative"):
            ReplayWeather([state(0.0)]).at(-1.0)

    def test_shifts_rejected(self):
        replay = ReplayWeather([state(0.0)])
        with pytest.raises(TypeError, match="recorded history"):
            replay.add_shift(None)


class TestTraceIO:
    def test_record_roundtrip_through_csv(self, tmp_path):
        weather = SyntheticWeather(np.random.default_rng(3))
        trace = record_trace(weather, duration_s=3600.0, interval_s=300.0)
        assert len(trace) == 13
        path = save_trace(str(tmp_path / "trace.csv"), trace)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert b.wind_speed_mps == pytest.approx(a.wind_speed_mps)
            assert b.relative_humidity == pytest.approx(a.relative_humidity)

    def test_replay_matches_recorded_source_at_sample_points(self):
        weather = SyntheticWeather(np.random.default_rng(5))
        trace = record_trace(weather, duration_s=1800.0, interval_s=300.0)
        replay = ReplayWeather(trace)
        for s in trace:
            assert replay.at(s.time_s).wind_speed_mps == pytest.approx(
                s.wind_speed_mps
            )

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="unexpected trace header"):
            load_trace(str(path))

    def test_record_validation(self):
        weather = SyntheticWeather(np.random.default_rng(1))
        with pytest.raises(ValueError):
            record_trace(weather, duration_s=0.0)


class TestBacktest:
    def test_fabric_run_against_replayed_history(self):
        """The backtesting loop: capture a day, replay it through the full
        fabric, and get identical weather-driven behaviour."""
        from repro.core import FabricConfig, XGFabric
        from repro.sensors.weather import RegimeShift

        # Record "history" including a front passage.
        source = SyntheticWeather(
            np.random.default_rng(7),
            shifts=[RegimeShift(at_time_s=3600.0, wind_delta_mps=2.5)],
        )
        trace = record_trace(source, duration_s=4 * 3600.0, interval_s=60.0)

        def run_with(weather):
            fab = XGFabric(FabricConfig(seed=9))
            fab.weather = weather
            m = fab.run(3 * 3600.0)
            return m.telemetry_sent, m.change_alerts

        live = run_with(
            SyntheticWeather(
                np.random.default_rng(7),
                shifts=[RegimeShift(at_time_s=3600.0, wind_delta_mps=2.5)],
            )
        )
        replayed = run_with(ReplayWeather(trace))
        # Same telemetry volume; detection outcome matches the live run
        # (the trace sampling is dense relative to the 300 s reporting).
        assert replayed[0] == live[0]
        assert replayed[1] == live[1]
