"""Tests for the weather process, stations, and breach schedule."""

import math

import numpy as np
import pytest

from repro.sensors import (
    BreachEvent,
    BreachSchedule,
    SyntheticWeather,
    WeatherStation,
    station_grid,
)
from repro.sensors.station import BREACH_ATTENUATION, INTACT_ATTENUATION
from repro.sensors.weather import RegimeShift, SECONDS_PER_DAY, clip


@pytest.fixture
def rng():
    return np.random.default_rng(9)


@pytest.fixture
def weather(rng):
    return SyntheticWeather(rng)


class TestSyntheticWeather:
    def test_deterministic_given_seed(self):
        a = SyntheticWeather(np.random.default_rng(1))
        b = SyntheticWeather(np.random.default_rng(1))
        for t in (0.0, 3600.0, 7200.0):
            assert a.at(t).wind_speed_mps == b.at(t).wind_speed_mps

    def test_wind_non_negative(self, weather):
        for t in np.linspace(0, 2 * SECONDS_PER_DAY, 200):
            assert weather.at(float(t)).wind_speed_mps >= 0.0

    def test_diurnal_temperature_cycle(self, weather):
        afternoon = weather.at(15 * 3600.0).exterior_temperature_k
        predawn = weather.at(3 * 3600.0).exterior_temperature_k
        assert afternoon > predawn

    def test_interior_warmer_than_base(self, weather):
        state = weather.at(12 * 3600.0)
        # Greenhouse effect: interior offset is positive at midday.
        assert state.interior_temperature_k > weather.base_temperature_k

    def test_regime_shift_steps_wind(self, rng):
        w = SyntheticWeather(
            rng, gust_sigma=0.0,
            shifts=[RegimeShift(at_time_s=3600.0, wind_delta_mps=3.0)],
        )
        before = w.at(3599.0).wind_speed_mps
        after = w.at(3601.0).wind_speed_mps
        assert after - before == pytest.approx(3.0, abs=0.1)

    def test_add_shift_keeps_order(self, weather):
        weather.add_shift(RegimeShift(at_time_s=100.0, wind_delta_mps=1.0))
        weather.add_shift(RegimeShift(at_time_s=50.0, wind_delta_mps=1.0))
        assert [s.at_time_s for s in weather.shifts] == [50.0, 100.0]

    def test_humidity_bounds(self, weather):
        for t in np.linspace(0, SECONDS_PER_DAY, 50):
            rh = weather.at(float(t)).relative_humidity
            assert 0.0 < rh < 1.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            SyntheticWeather(rng, base_wind_mps=-1.0)
        with pytest.raises(ValueError):
            SyntheticWeather(rng, base_humidity=1.5)
        with pytest.raises(ValueError):
            SyntheticWeather(rng).at(-5.0)


class TestClip:
    """The sensors' scalar clip must return ``np.clip``'s value bit for
    bit: humidity readings are pinned by the fabric digests."""

    @pytest.mark.parametrize("lo, hi", [(0.05, 0.98), (0.0, 1.0)])
    @pytest.mark.parametrize("where", [
        "+0", "-0", "lo", "hi", "below lo", "above hi", "inside", "nan",
        "-nan", "-inf", "+inf",
    ])
    def test_equals_np_clip(self, lo, hi, where):
        x = {
            "+0": 0.0, "-0": -0.0, "lo": lo, "hi": hi,
            "below lo": math.nextafter(lo, -math.inf),
            "above hi": math.nextafter(hi, math.inf),
            "inside": 0.5 * (lo + hi), "nan": math.nan, "-nan": -math.nan,
            "-inf": -math.inf, "+inf": math.inf,
        }[where]
        got, want = clip(x, lo, hi), float(np.clip(x, lo, hi))
        assert type(got) is float
        # Compare bits: this tells -0.0 from 0.0 and keeps NaN's sign.
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestBreachSchedule:
    def test_active_at(self):
        schedule = BreachSchedule([
            BreachEvent(0, at_time_s=100.0),
            BreachEvent(2, at_time_s=200.0),
        ])
        assert schedule.breached_panels_at(50.0) == set()
        assert schedule.breached_panels_at(150.0) == {0}
        assert schedule.breached_panels_at(250.0) == {0, 2}
        assert schedule.first_breach_time() == 100.0
        assert len(schedule) == 2

    def test_add_sorts(self):
        schedule = BreachSchedule()
        schedule.add(BreachEvent(1, at_time_s=500.0))
        schedule.add(BreachEvent(0, at_time_s=100.0))
        assert [e.at_time_s for e in schedule] == [100.0, 500.0]
        assert BreachSchedule().first_breach_time() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            BreachEvent(-1, at_time_s=0.0)
        with pytest.raises(ValueError):
            BreachEvent(0, at_time_s=-1.0)
        with pytest.raises(ValueError):
            BreachEvent(0, at_time_s=0.0, severity=0.0)


class TestWeatherStation:
    def test_exterior_reads_full_wind(self, weather, rng):
        station = WeatherStation("ext", (5.0, 70.0), interior=False,
                                 wind_noise_sigma=0.0)
        reading = station.read(weather, 1000.0, rng)
        assert reading.wind_speed_mps == pytest.approx(
            weather.at(1000.0).wind_speed_mps
        )
        assert not reading.interior

    def test_interior_attenuated(self, weather, rng):
        station = WeatherStation("int", (30.0, 70.0), interior=True,
                                 nearest_panel_index=0, wind_noise_sigma=0.0)
        state = weather.at(1000.0)
        reading = station.read(weather, 1000.0, rng)
        assert reading.wind_speed_mps == pytest.approx(
            state.wind_speed_mps * INTACT_ATTENUATION
        )

    def test_breach_raises_local_wind(self, weather, rng):
        station = WeatherStation("int", (30.0, 70.0), interior=True,
                                 nearest_panel_index=0, wind_noise_sigma=0.0)
        breaches = BreachSchedule([BreachEvent(0, at_time_s=500.0)])
        state = weather.at(1000.0)
        before = station.true_local_wind(weather.at(400.0), breaches)
        after = station.true_local_wind(state, breaches)
        assert after == pytest.approx(state.wind_speed_mps * BREACH_ATTENUATION)
        assert after / state.wind_speed_mps > before / weather.at(400.0).wind_speed_mps

    def test_breach_of_other_panel_no_effect(self, weather, rng):
        station = WeatherStation("int", (30.0, 70.0), interior=True,
                                 nearest_panel_index=0, wind_noise_sigma=0.0)
        breaches = BreachSchedule([BreachEvent(3, at_time_s=0.0)])
        state = weather.at(1000.0)
        assert station.true_local_wind(state, breaches) == pytest.approx(
            state.wind_speed_mps * INTACT_ATTENUATION
        )

    def test_partial_severity_interpolates(self, weather):
        station = WeatherStation("int", (30.0, 70.0), interior=True,
                                 nearest_panel_index=0)
        half = BreachSchedule([BreachEvent(0, at_time_s=0.0, severity=0.5)])
        full = BreachSchedule([BreachEvent(0, at_time_s=0.0, severity=1.0)])
        state = weather.at(100.0)
        w_half = station.true_local_wind(state, half)
        w_full = station.true_local_wind(state, full)
        w_none = station.true_local_wind(state, None)
        assert w_none < w_half < w_full

    def test_noise_makes_consecutive_readings_indistinct(self, weather, rng):
        # The paper's premise: under stationary conditions, consecutive
        # readings are usually NOT statistically different. Each trial is
        # one epoch of the change-detection graph: the last 6 readings
        # against the 6 before them.
        from repro.cspot import CSPOTNode
        from repro.laminar import LaminarRuntime, build_change_detection_graph
        from repro.simkernel import Engine

        station = WeatherStation("ext", (5.0, 70.0))
        engine = Engine(seed=0)
        runtime = LaminarRuntime(
            engine, build_change_detection_graph(),
            hosts={"ucsb": CSPOTNode(engine, "ucsb")},
        )
        alerts = 0
        trials = 30
        for trial in range(trials):
            t0 = 50_000.0 + trial * 4000.0
            readings = np.array([
                station.read(weather, t0 + k * 300.0, rng).wind_speed_mps
                for k in range(12)
            ])
            runtime.submit(trial, {"current": readings[6:], "previous": readings[:6]})
            engine.run(until=runtime.epoch_done(trial))
            alerts += bool(runtime.value("alert", trial))
        assert alerts < trials / 3

    def test_interior_station_needs_panel(self):
        with pytest.raises(ValueError, match="nearest_panel_index"):
            WeatherStation("x", (0, 0), interior=True)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            WeatherStation("x", (0, 0), wind_noise_sigma=-1.0)


class TestStationGrid:
    def test_default_layout(self):
        stations = station_grid()
        assert len(stations) == 5
        assert sum(1 for s in stations if s.interior) == 4
        panels = {s.nearest_panel_index for s in stations if s.interior}
        assert panels == {0, 1, 2, 3}

    def test_unique_ids(self):
        stations = station_grid()
        assert len({s.station_id for s in stations}) == len(stations)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            station_grid(n_interior=0)
        with pytest.raises(ValueError):
            station_grid(n_interior=5)
