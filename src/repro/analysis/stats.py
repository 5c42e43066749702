"""Sample statistics for benchmark outputs, and the Student-t distribution.

The Student-t tail and quantile are computed here with ``math`` alone: the
regularised incomplete beta by a continued fraction, and the quantile by
bisection on that tail. The Laminar change detector's Welch test uses the
same tail (:mod:`repro.laminar.stats_tests`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampleSummary:
    """Mean/SD/extremes of one measurement series."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        return self.std / np.sqrt(self.n) if self.n > 1 else float("nan")

    def two_sigma_band(self) -> tuple[float, float]:
        """The +/- 2 SD whiskers of the paper's Figure 7."""
        return (self.mean - 2 * self.std, self.mean + 2 * self.std)


def _finite_series(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"need a non-empty 1-D series, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


def summarize(samples) -> SampleSummary:
    """Summarize a 1-D series of finite values."""
    arr = _finite_series(samples)
    minimum = float(arr.min())
    maximum = float(arr.max())
    # Pairwise summation can put the mean an ulp outside [min, max] (e.g.
    # three identical values); clamp so min <= mean <= max always holds.
    mean = min(max(float(arr.mean()), minimum), maximum)
    return SampleSummary(
        n=int(arr.size),
        mean=mean,
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=minimum,
        maximum=maximum,
    )


def confidence_interval(samples, level: float = 0.95) -> tuple[float, float]:
    """Two-sided t-interval for the mean of a series of finite values."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level out of (0,1): {level}")
    arr = _finite_series(samples)
    if arr.size < 2:
        raise ValueError("need at least 2 samples for an interval")
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    if sem == 0.0:
        return (mean, mean)
    half = student_t_quantile(level, arr.size - 1) * sem
    return (mean - half, mean + half)


def student_t_tail(t: float, df: float) -> float:
    """Two-sided tail P(|T| >= |t|) of Student's t with ``df`` > 0 degrees
    of freedom.

    The tail is I_x(df/2, 1/2) with x = df / (df + t^2). 1 - x is formed
    as t^2 / (df + t^2), not by subtraction, so a tail near 1 (small |t|)
    keeps its precision. The relative error grows with df, because the
    lgamma values whose difference sets the prefactor grow: measured
    against scipy, below 1e-13 up to df = 30, 2e-12 up to 300 and 2e-11
    up to 3000.
    """
    t2 = t * t
    return _betainc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def student_t_quantile(level: float, df: float) -> float:
    """The t >= 0 with P(|T| <= t) = ``level`` for Student's t with ``df``
    degrees of freedom: bisection on :func:`student_t_tail` down to
    adjacent floats."""
    tail = 1.0 - level
    lo, hi = 0.0, 1.0
    while student_t_tail(hi, df) > tail:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if student_t_tail(mid, df) > tail:
            lo = mid
        else:
            hi = mid
    return mid


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularised incomplete beta I_x(a, b), given x and y = 1 - x.

    The continued fraction converges fast for x < (a + 1) / (a + b + 2);
    above that, I_x(a, b) = 1 - I_y(b, a).
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, y, x)
    log_front = (a * math.log(x) + b * math.log(y) + math.lgamma(a + b)
                 - math.lgamma(a) - math.lgamma(b))
    return math.exp(log_front) / a * _beta_continued_fraction(a, b, x)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The incomplete beta's continued fraction, by the modified Lentz
    method (Numerical Recipes, section 6.4)."""
    c = 1.0
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / _nonzero(1.0 + num * d)
            c = _nonzero(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge: a={a}, b={b}, x={x}")


def _nonzero(v: float) -> float:
    """Lentz's guard: a denominator this close to zero becomes 1e-300."""
    return v if abs(v) >= 1e-300 else 1e-300
