"""Tests for the declarative scenario builder."""

import warnings

import pytest

from repro.core import FabricConfig, Scenario

warnings.filterwarnings("ignore", category=RuntimeWarning)


class TestBuilder:
    def test_chainable_construction(self):
        s = (
            Scenario(hours=8, seed=3)
            .front_passage(at_hour=2.0, wind_delta_mps=2.5)
            .breach(panel=0, at_hour=4.0, cause="bird-strike")
        )
        assert len(s._shifts) == 1
        assert len(s._breaches) == 1

    def test_event_outside_horizon_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Scenario(hours=4).breach(panel=0, at_hour=5.0)
        with pytest.raises(ValueError, match="outside"):
            Scenario(hours=4).front_passage(at_hour=-1.0)

    def test_invalid_hours(self):
        with pytest.raises(ValueError):
            Scenario(hours=0)

    def test_with_seed_copies_events(self):
        base = Scenario(hours=8, seed=1).breach(panel=2, at_hour=3.0)
        clone = base.with_seed(99)
        assert clone.seed == 99
        assert len(clone._breaches) == 1
        # Independent lists: adding to the clone doesn't touch the base.
        clone.breach(panel=3, at_hour=5.0)
        assert len(base._breaches) == 1

    def test_build_applies_config_and_events(self):
        s = (
            Scenario(
                hours=8, seed=7, config=FabricConfig(telemetry_interval_s=600.0)
            )
            .breach(panel=1, at_hour=2.0)
        )
        fabric = s.build()
        assert fabric.config.seed == 7
        assert fabric.config.telemetry_interval_s == 600.0
        assert fabric.farm.breaches.first_breach_time() == 2.0 * 3600.0


class TestRun:
    @pytest.fixture(scope="class")
    def result(self):
        return (
            Scenario(hours=8, seed=3)
            .front_passage(at_hour=2.0, wind_delta_mps=2.5,
                           temperature_delta_k=-3.0)
            .breach(panel=0, at_hour=4.0, cause="bird-strike")
            .run()
        )

    def test_result_bundles_everything(self, result):
        assert result.metrics.telemetry_sent > 0
        assert result.report.cfd_runs == len(result.metrics.cfd_runs)

    def test_detection_delay(self, result):
        delay = result.detection_delay_s
        assert delay is not None
        assert 0 <= delay < 3600.0

    def test_localization(self, result):
        assert result.localized_correctly

    def test_no_breach_means_no_delay(self):
        result = Scenario(hours=2, seed=5).run()
        assert result.detection_delay_s is None
        assert not result.localized_correctly

    def test_same_seed_reproducible(self):
        def outcome(seed):
            r = (
                Scenario(hours=3, seed=seed)
                .front_passage(at_hour=1.0, wind_delta_mps=2.0)
                .run()
            )
            return (r.metrics.telemetry_sent, r.metrics.change_alerts,
                    len(r.metrics.cfd_runs))

        assert outcome(13) == outcome(13)
