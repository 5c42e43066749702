"""Tests for the statistical tests and the change detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.laminar import (
    ChangeDetector,
    build_change_detection_graph,
    ks_test,
    mann_whitney_test,
    welch_t_test,
)
from repro.laminar.stats_tests import StatTestResult, majority_vote


@pytest.fixture
def rng():
    return np.random.default_rng(7)


ALL = (welch_t_test, mann_whitney_test, ks_test)


class TestIndividualTests:
    @pytest.mark.parametrize("test_fn", ALL, ids=lambda f: f.__name__)
    def test_detects_large_mean_shift(self, test_fn, rng):
        prev = rng.normal(0.0, 1.0, 30)
        cur = rng.normal(5.0, 1.0, 30)
        assert test_fn(cur, prev).different

    @pytest.mark.parametrize("test_fn", ALL, ids=lambda f: f.__name__)
    def test_same_distribution_usually_not_different(self, test_fn, rng):
        # With alpha=0.05 the false-positive rate should be ~5%.
        hits = 0
        for _ in range(100):
            prev = rng.normal(0.0, 1.0, 20)
            cur = rng.normal(0.0, 1.0, 20)
            hits += test_fn(cur, prev).different
        assert hits < 20

    @pytest.mark.parametrize("test_fn", ALL, ids=lambda f: f.__name__)
    def test_constant_windows(self, test_fn):
        same = test_fn(np.full(6, 3.0), np.full(6, 3.0))
        assert not same.different
        diff = test_fn(np.full(6, 3.0), np.full(6, 4.0))
        assert diff.different

    @pytest.mark.parametrize("test_fn", ALL, ids=lambda f: f.__name__)
    def test_input_validation(self, test_fn):
        with pytest.raises(ValueError):
            test_fn([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            test_fn([np.nan, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            test_fn([[1.0, 2.0]], [[1.0, 2.0]])

    def test_welch_spread_below_float_range(self):
        # Variances that underflow to 0 leave t = diff / 0: the means decide.
        res = welch_t_test([0.0, 0.0], [0.0, 2.8e-244])
        assert res.different and res.statistic == -np.inf
        assert not welch_t_test([0.0, 1e-300], [1e-300, 0.0]).different
        # Variances whose squares underflow still give a finite df and p.
        res = welch_t_test(np.zeros(6), [0.0, 1e-150, 0.0, 0.0, 0.0, 0.0])
        assert 0.0 < res.p_value < 1.0 and not res.different

    def test_ks_detects_variance_change(self, rng):
        # Variance-only changes are where KS earns its seat at the table.
        prev = rng.normal(0.0, 0.2, 60)
        cur = rng.normal(0.0, 3.0, 60)
        assert ks_test(cur, prev).different


class TestVoting:
    def _result(self, different):
        return StatTestResult("x", 0.0, 0.01 if different else 0.9, 0.05)

    def test_two_of_three(self):
        assert majority_vote([self._result(True), self._result(True), self._result(False)])
        assert not majority_vote([self._result(True), self._result(False), self._result(False)])

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            majority_vote([self._result(True)], threshold=2)
        with pytest.raises(ValueError):
            majority_vote([], threshold=1)


class TestChangeDetector:
    def test_clear_change_detected(self, rng):
        det = ChangeDetector()
        verdict = det.compare(rng.normal(8, 0.3, 6), rng.normal(3, 0.3, 6))
        assert verdict.changed
        assert verdict.votes_for_change >= 2
        assert bool(verdict)

    def test_noise_only_rarely_alerts(self, rng):
        # The paper's motivation: sensor noise makes consecutive readings
        # statistically indistinguishable, so most cycles must NOT alert.
        det = ChangeDetector()
        alerts = sum(
            det.compare(rng.normal(5, 1.0, 6), rng.normal(5, 1.0, 6)).changed
            for _ in range(100)
        )
        assert alerts < 20

    def test_evaluate_series_window_split(self, rng):
        det = ChangeDetector(window_size=6)
        series = np.concatenate([rng.normal(2, 0.2, 6), rng.normal(9, 0.2, 6)])
        assert det.evaluate_series(series).changed

    def test_evaluate_series_uses_most_recent_windows(self, rng):
        det = ChangeDetector(window_size=6)
        # Old data changed long ago; the last two windows are identical.
        steady = rng.normal(5, 0.2, 12)
        series = np.concatenate([rng.normal(50, 0.2, 10), steady])
        assert not det.evaluate_series(series).changed

    def test_series_too_short(self):
        with pytest.raises(ValueError, match=">= 12"):
            ChangeDetector(window_size=6).evaluate_series(np.zeros(11))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ChangeDetector(window_size=1)
        with pytest.raises(ValueError):
            ChangeDetector(alpha=0.0)
        with pytest.raises(ValueError):
            ChangeDetector(vote_threshold=4)


_WINDOWS = (np.arange(6.0), np.arange(6.0) + 0.5)


class TestSettingsValidation:
    """The graph builder and the three tests reject what the detector
    rejects: an alpha outside (0, 1) or NaN (nothing is ever different), a
    vote threshold of 0 (alerts every epoch) or above 3 (never alerts)."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: build_change_detection_graph(alpha=0.0), id="graph-alpha-0"),
        pytest.param(lambda: build_change_detection_graph(alpha=1.5), id="graph-alpha-1.5"),
        pytest.param(lambda: build_change_detection_graph(alpha=float("nan")),
                     id="graph-alpha-nan"),
        pytest.param(lambda: build_change_detection_graph(vote_threshold=0),
                     id="graph-threshold-0"),
        pytest.param(lambda: build_change_detection_graph(vote_threshold=4),
                     id="graph-threshold-4"),
        pytest.param(lambda: welch_t_test(*_WINDOWS, alpha=2.0), id="welch-alpha-2"),
        pytest.param(lambda: welch_t_test(*_WINDOWS, alpha=float("nan")), id="welch-alpha-nan"),
        pytest.param(lambda: mann_whitney_test(*_WINDOWS, alpha=0.0), id="mwu-alpha-0"),
        pytest.param(lambda: mann_whitney_test(*_WINDOWS, alpha=float("nan")),
                     id="mwu-alpha-nan"),
        pytest.param(lambda: ks_test(*_WINDOWS, alpha=-0.1), id="ks-alpha-negative"),
        pytest.param(lambda: ks_test(*_WINDOWS, alpha=float("nan")), id="ks-alpha-nan"),
    ])
    def test_rejected(self, build):
        with pytest.raises(ValueError, match="alpha|threshold"):
            build()


@settings(max_examples=50, deadline=None)
@given(
    shift=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_detector_never_crashes_and_verdict_is_boolean(shift, seed):
    rng = np.random.default_rng(seed)
    det = ChangeDetector()
    verdict = det.compare(rng.normal(shift, 1.0, 6), rng.normal(0.0, 1.0, 6))
    assert isinstance(verdict.changed, bool)
    assert 0 <= verdict.votes_for_change <= 3
    # Vote consistency: verdict.changed iff >= 2 votes.
    assert verdict.changed == (verdict.votes_for_change >= 2)
