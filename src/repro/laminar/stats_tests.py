"""The three statistical difference tests used by the change detector.

The paper (section 4.2): "a Laminar program reads the most recent 6
telemetry values (covering the most recent 30 minutes) and compares them to
the previous 30-minute period using three different tests of statistical
difference", then "a voting algorithm to arbitrate between them".

We use three tests with complementary assumptions. Each p-value is exact,
computed with numpy and ``math`` alone, and each test picks its method the
way ``scipy.stats`` 1.17 does (scipy is the oracle of the test suite):

* **Welch's t-test** -- parametric, mean shift, unequal variances. The
  Welch-Satterthwaite degrees of freedom and the two-sided Student-t tail
  from the regularised incomplete beta
  (:func:`repro.analysis.stats.student_t_tail`), as
  ``ttest_ind(equal_var=False)``.
* **Mann-Whitney U** -- non-parametric, location shift (rank-based). As
  ``mannwhitneyu(alternative="two-sided")`` chooses (``_mwu_choose_method``):
  the exact null distribution of U, counted with integers, when a window
  has at most 8 values and no value ties; otherwise the normal
  approximation with the tie term and a 0.5 continuity correction. The
  statistic is U of the current window.
* **Kolmogorov-Smirnov** -- non-parametric, any distributional change. As
  ``ks_2samp`` (method "auto", exact up to 10000 values per window): the
  exact two-sided p-value, the share of lattice paths that leave the band
  of the observed ECDF gap, counted with integers for equal and unequal
  sizes alike. Where scipy's own exact routine overshoots 1 (equal sizes,
  gap of one step) and it falls back to an asymptotic value, this gives
  the exact 1.

Each returns a :class:`StatTestResult` with the p-value and the boolean
"different at level alpha" verdict the voter consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import student_t_tail

#: Default significance level for "conditions have meaningfully changed".
DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class StatTestResult:
    """Outcome of one statistical difference test."""

    test_name: str
    statistic: float
    p_value: float
    alpha: float

    @property
    def different(self) -> bool:
        """True when the null (no change) is rejected at ``alpha``."""
        return bool(self.p_value < self.alpha)


def check_alpha(alpha: float) -> None:
    """Reject a significance level outside (0, 1), NaN included."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha out of (0,1): {alpha}")


def check_vote_threshold(threshold: int, n_tests: int) -> None:
    """Reject a vote threshold that no vote of ``n_tests`` tests can
    meaningfully reach: below 1 it always alerts, above ``n_tests`` never."""
    if not 1 <= threshold <= n_tests:
        raise ValueError(f"vote threshold {threshold} out of range 1..{n_tests}")


def _validate(current, previous, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    check_alpha(alpha)
    cur = np.asarray(current, dtype=np.float64)
    prev = np.asarray(previous, dtype=np.float64)
    if cur.ndim != 1 or prev.ndim != 1:
        raise ValueError("samples must be 1-D arrays")
    if cur.size < 2 or prev.size < 2:
        raise ValueError(
            f"each window needs >= 2 samples (got {cur.size} and {prev.size})"
        )
    if not (np.all(np.isfinite(cur)) and np.all(np.isfinite(prev))):
        raise ValueError("samples must be finite")
    return cur, prev


def _degenerate(cur: np.ndarray, prev: np.ndarray) -> bool:
    """Both windows constant: the tests below are undefined there."""
    return bool(np.ptp(cur) == 0.0 and np.ptp(prev) == 0.0)


def welch_t_test(
    current, previous, alpha: float = DEFAULT_ALPHA
) -> StatTestResult:
    """Welch's unequal-variance t-test on the two windows."""
    cur, prev = _validate(current, previous, alpha)
    if _degenerate(cur, prev):
        different = float(cur[0]) != float(prev[0])
        return StatTestResult("welch-t", float("inf") if different else 0.0,
                              0.0 if different else 1.0, alpha)
    vn1 = float(cur.var(ddof=1)) / cur.size
    vn2 = float(prev.var(ddof=1)) / prev.size
    diff = float(cur.mean()) - float(prev.mean())
    if vn1 + vn2 == 0.0:
        # Spreads whose variances underflow: t = diff / 0, as in scipy.
        return StatTestResult("welch-t", math.copysign(math.inf, diff) if diff else 0.0,
                              0.0 if diff else 1.0, alpha)
    # Welch-Satterthwaite df from the variance shares, which stay in [0, 1]:
    # squaring the variances themselves can underflow to 0 / 0.
    w1, w2 = vn1 / (vn1 + vn2), vn2 / (vn1 + vn2)
    df = 1.0 / (w1**2 / (cur.size - 1) + w2**2 / (prev.size - 1))
    t = diff / math.sqrt(vn1 + vn2)
    return StatTestResult("welch-t", t, student_t_tail(t, df), alpha)


def mann_whitney_test(
    current, previous, alpha: float = DEFAULT_ALPHA
) -> StatTestResult:
    """Mann-Whitney U rank test on the two windows."""
    cur, prev = _validate(current, previous, alpha)
    if _degenerate(cur, prev):
        different = float(cur[0]) != float(prev[0])
        return StatTestResult("mann-whitney-u", 0.0,
                              0.0 if different else 1.0, alpha)
    n1, n2 = cur.size, prev.size
    above = np.count_nonzero(cur[:, None] > prev)
    u1 = float(above + 0.5 * np.count_nonzero(cur[:, None] == prev))
    u = max(u1, n1 * n2 - u1)
    ties = np.unique(np.concatenate((cur, prev)), return_counts=True)[1]
    # scipy's method choice: the normal approximation once both windows
    # hold more than 8 values or any value ties, else the exact count.
    if (n1 > 8 and n2 > 8) or ties.max() > 1:
        n = n1 + n2
        tie_term = float(np.sum(ties.astype(np.float64) ** 3 - ties))
        sigma = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
        p = math.erfc((u - n1 * n2 / 2 - 0.5) / sigma / math.sqrt(2.0))
    else:  # 2 P(U >= u) = 2 P(U <= n1 n2 - u): U's null law is symmetric
        p = 2 * _u_count_at_most(n1, n2, n1 * n2 - int(u)) / math.comb(n1 + n2, n1)
    return StatTestResult("mann-whitney-u", u1, min(p, 1.0), alpha)


def _u_count_at_most(n1: int, n2: int, k: int) -> int:
    """How many of the C(n1 + n2, n1) orderings of distinct values give
    U <= ``k``.

    U's null counts are the coefficients of the Gaussian binomial
    [n1 + n2, n1]_q = prod_{i=1..m} (1 - q^(n+i)) / (1 - q^i), with
    m, n = min, max of n1, n2; they are built with integers up to q^k.
    """
    m, n = sorted((n1, n2))
    coef = [1] + [0] * k
    for i in range(1, m + 1):
        for u in range(k, n + i - 1, -1):  # times (1 - q^(n+i))
            coef[u] -= coef[u - n - i]
        for u in range(i, k + 1):  # divided by (1 - q^i)
            coef[u] += coef[u - i]
    return sum(coef)


def ks_test(current, previous, alpha: float = DEFAULT_ALPHA) -> StatTestResult:
    """Two-sample Kolmogorov-Smirnov test on the two windows."""
    cur, prev = _validate(current, previous, alpha)
    if _degenerate(cur, prev):
        different = float(cur[0]) != float(prev[0])
        return StatTestResult("kolmogorov-smirnov", 1.0 if different else 0.0,
                              0.0 if different else 1.0, alpha)
    n1, n2 = cur.size, prev.size
    pooled = np.concatenate((cur, prev))
    # The ECDF gap in units of 1 / (n1 n2): |n2 F1 - n1 F2| at every point.
    gap = int(np.max(np.abs(
        np.searchsorted(np.sort(cur), pooled, side="right") * n2
        - np.searchsorted(np.sort(prev), pooled, side="right") * n1
    )))
    return StatTestResult("kolmogorov-smirnov", gap / (n1 * n2),
                          _ks_p_value(n1, n2, gap), alpha)


def _ks_p_value(n1: int, n2: int, gap: int) -> float:
    """P(D >= gap / (n1 n2)) for two samples of n1 and n2 distinct values.

    Each ordering of the pooled values is a lattice path from (0, 0) to
    (n1, n2); D reaches the gap exactly when the path touches
    |n2 x - n1 y| >= gap. Count the paths that stay inside, with integers.
    """
    inside = [1] + [0] * n2
    for x in range(n1 + 1):
        for y in range(n2 + 1):
            if abs(n2 * x - n1 * y) >= gap:
                inside[y] = 0
            elif y:
                inside[y] += inside[y - 1]
    total = math.comb(n1 + n2, n1)
    return (total - inside[n2]) / total


ALL_TESTS = (welch_t_test, mann_whitney_test, ks_test)


def majority_vote(results: list[StatTestResult], threshold: int = 2) -> bool:
    """The arbitration step: change is declared when at least ``threshold``
    of the tests reject the null."""
    if not results:
        raise ValueError("no test results to vote on")
    check_vote_threshold(threshold, len(results))
    return sum(1 for r in results if r.different) >= threshold
