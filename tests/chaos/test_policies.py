"""Unit tests for retry/backoff policies."""

import math

import pytest

from repro.chaos.policies import (
    DEFAULT_APPEND_POLICY,
    DEFAULT_FETCH_POLICY,
    DEFAULT_PILOT_POLICY,
    RESILIENT_POLICIES,
    FabricPolicies,
    RetryPolicy,
)


class TestRetryPolicy:
    def test_delay_doubles_and_caps(self):
        p = RetryPolicy(max_attempts=10, backoff_s=0.5, max_backoff_s=4.0)
        assert p.delay_s(0) == 0.5
        assert p.delay_s(1) == 1.0
        assert p.delay_s(2) == 2.0
        assert p.delay_s(3) == 4.0
        assert p.delay_s(4) == 4.0  # capped

    def test_exponent_clamp_never_overflows(self):
        p = RetryPolicy(max_attempts=10_000, backoff_s=0.5, max_backoff_s=60.0)
        assert p.delay_s(9_999) == 60.0

    def test_zero_backoff_retries_immediately(self):
        p = RetryPolicy(max_attempts=3, backoff_s=0.0, max_backoff_s=0.0)
        assert p.delay_s(0) == 0.0
        assert p.total_budget_s() == 0.0

    def test_total_budget_sums_delays(self):
        p = RetryPolicy(max_attempts=4, backoff_s=1.0, max_backoff_s=100.0)
        assert p.total_budget_s() == pytest.approx(1.0 + 2.0 + 4.0)

    def test_single_attempt_means_no_retry_budget(self):
        assert RetryPolicy(max_attempts=1).total_budget_s() == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_s": -1.0},
            {"backoff_factor": 0.5},
            {"backoff_s": 10.0, "max_backoff_s": 5.0},
            {"backoff_s": math.nan},
            {"backoff_s": math.inf, "max_backoff_s": math.inf},
            {"backoff_factor": math.nan},
            {"backoff_factor": math.inf},
            {"max_backoff_s": math.nan},
            {"max_backoff_s": math.inf},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_s(-1)


class TestFabricPolicies:
    def test_defaults_match_the_historical_transport_constants(self):
        """The no-drift guarantee: a default policy bundle reproduces the
        RemoteAppendClient constructor defaults exactly."""
        p = FabricPolicies()
        assert p.append.backoff_s == 0.5
        assert p.append.max_attempts == 100
        assert p.append.max_backoff_s == 60.0
        assert p.append.backoff_factor == 2.0
        assert p.pilot.max_attempts == 3
        assert p.pilot.backoff_s == 0.0
        assert p.pilot_watchdog_s == 0.0  # watchdog off by default

    def test_named_defaults_are_the_bundle_defaults(self):
        p = FabricPolicies()
        assert p.append == DEFAULT_APPEND_POLICY
        assert p.fetch == DEFAULT_FETCH_POLICY
        assert p.pilot == DEFAULT_PILOT_POLICY

    def test_resilient_bundle_turns_the_watchdog_on(self):
        assert RESILIENT_POLICIES.pilot_watchdog_s > 0
        assert RESILIENT_POLICIES.append == DEFAULT_APPEND_POLICY

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_non_finite_watchdog_rejected(self, interval):
        with pytest.raises(ValueError, match="finite"):
            FabricPolicies(pilot_watchdog_s=interval)

    def test_negative_watchdog_rejected(self):
        with pytest.raises(ValueError):
            FabricPolicies(pilot_watchdog_s=-1.0)
