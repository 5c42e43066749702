"""scipy is the oracle for the change detector's exact tests and the t quantile.

The runtime computes every p-value with numpy and ``math`` alone
(:mod:`repro.laminar.stats_tests`, :mod:`repro.analysis.stats`). This
battery holds each test to its ``scipy.stats`` counterpart at the window
sizes the detector sees, 2 to 2 x ``WINDOW_SIZE`` values: equal and unequal
sizes, quantised values that force ties, one constant window, and pairs
whose scipy p-value lies next to alpha.

Verdicts at alpha = 0.05 must be identical. p-values must agree within
these relative tolerances:

* Welch: 1e-9. Both sides evaluate the Student-t tail in floating point,
  by different algorithms.
* Mann-Whitney U and KS: 1e-12. Both sides count the same exact null
  distribution (or, for U with ties or two windows of more than 8, use
  the same normal approximation).

scipy's exact KS routine overshoots 1 at a gap of one step between equal
windows; it then warns and switches to an asymptotic value. There the
exact p-value is 1, which is what the runtime returns.

Values carry at most 12 decimals. Below spreads of about 1e-77 the
squared variances in scipy's Welch df underflow to 0 / 0, and scipy
falls back to df = 1, so it is no oracle there; ``test_change_detect.py``
covers that range.

The t quantile must match ``t.ppf`` within 1e-12 relative for 1 to 200
degrees of freedom (see :func:`repro.analysis.stats.student_t_tail` for
how its float error grows with df).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.analysis import confidence_interval
from repro.laminar.change_detect import WINDOW_SIZE
from repro.laminar.stats_tests import (
    DEFAULT_ALPHA,
    ks_test,
    mann_whitney_test,
    welch_t_test,
)

MAX_SIZE = 2 * WINDOW_SIZE

#: (runtime test, scipy counterpart, relative p-value tolerance)
ORACLES = {
    "welch": (welch_t_test,
              lambda cur, prev: sps.ttest_ind(cur, prev, equal_var=False), 1e-9),
    "mann-whitney": (mann_whitney_test,
                     lambda cur, prev: sps.mannwhitneyu(cur, prev,
                                                        alternative="two-sided"),
                     1e-12),
    "ks": (ks_test, sps.ks_2samp, 1e-12),
}


def _scipy_result(name, cur, prev):
    """scipy's result, and whether it switched KS to the asymptotic method."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = ORACLES[name][1](cur, prev)
    switched = any("Switching to method=asymp" in str(w.message) for w in caught)
    return res, switched


def _assert_matches_scipy(name, cur, prev):
    ours = ORACLES[name][0](cur, prev)
    ref, switched = _scipy_result(name, cur, prev)
    if switched:
        assert len(cur) == len(prev)
        assert ours.statistic == pytest.approx(1.0 / len(cur), rel=1e-15)
        assert ours.p_value == 1.0
        assert not ref.pvalue < DEFAULT_ALPHA
        return
    assert ours.different == bool(ref.pvalue < DEFAULT_ALPHA), (cur, prev)
    assert ours.p_value == pytest.approx(float(ref.pvalue), rel=ORACLES[name][2])
    assert ours.statistic == pytest.approx(float(ref.statistic), rel=1e-12)


@st.composite
def window_pairs(draw):
    """Two windows of 2..MAX_SIZE values, not both constant."""
    n1 = draw(st.integers(2, MAX_SIZE))
    n2 = draw(st.one_of(st.just(n1), st.integers(2, MAX_SIZE)))
    value = st.floats(-20.0, 20.0)
    cur = np.round(draw(st.lists(value, min_size=n1, max_size=n1)), 12)
    prev = np.round(draw(st.lists(value, min_size=n2, max_size=n2)), 12)
    quantum = draw(st.sampled_from([None, 0.1, 0.5, 2.0]))
    if quantum is not None:
        cur = np.round(cur / quantum) * quantum
        prev = np.round(prev / quantum) * quantum
    if draw(st.booleans()):
        cur = np.full(n1, cur[0])
    if np.ptp(cur) == 0 and np.ptp(prev) == 0:
        prev[0] += 1.0
    return cur, prev


@pytest.mark.parametrize("name", sorted(ORACLES))
@settings(max_examples=300, deadline=None)
@given(pair=window_pairs())
def test_matches_scipy(name, pair):
    _assert_matches_scipy(name, *pair)


def _near_alpha_pairs(name, seed, wanted=30, max_tries=4000):
    """A seeded search for window pairs whose scipy p lies in [0.04, 0.06]."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(max_tries):
        n1 = int(rng.integers(2, MAX_SIZE + 1))
        n2 = n1 if rng.random() < 0.5 else int(rng.integers(2, MAX_SIZE + 1))
        cur = rng.normal(0.0, 1.0, n1)
        prev = rng.normal(rng.uniform(0.0, 2.5), rng.uniform(0.5, 2.0), n2)
        if 0.04 <= _scipy_result(name, cur, prev)[0].pvalue <= 0.06:
            pairs.append((cur, prev))
            if len(pairs) == wanted:
                break
    return pairs


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_matches_scipy_next_to_alpha(name):
    pairs = _near_alpha_pairs(name, seed=19)
    assert len(pairs) == 30
    for cur, prev in pairs:
        _assert_matches_scipy(name, cur, prev)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_wind_like_windows(name):
    # The fabric's own shape: 6 readings of a gusty wind against the 6
    # before them, some across a front.
    rng = np.random.default_rng(6)
    for _ in range(200):
        base = rng.uniform(1.0, 6.0)
        prev = np.round(base + rng.normal(0.0, 0.4, WINDOW_SIZE), 2)
        cur = np.round(base + rng.choice([0.0, 0.5, 2.5])
                       + rng.normal(0.0, 0.4, WINDOW_SIZE), 2)
        _assert_matches_scipy(name, cur, prev)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 201),
    level=st.floats(0.01, 0.999),
    seed=st.integers(0, 2**32 - 1),
)
def test_confidence_interval_matches_t_ppf(n, level, seed):
    data = np.random.default_rng(seed).normal(0.0, 1.0, n)
    lo, hi = confidence_interval(data, level=level)
    sem = data.std(ddof=1) / np.sqrt(n)
    expected = sps.t.ppf(0.5 + level / 2, n - 1) * sem
    assert (hi - lo) / 2 == pytest.approx(expected, rel=1e-12)
