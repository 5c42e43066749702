"""Tests for analysis statistics and reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ComparisonTable, confidence_interval, summarize


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.mean == 2.0
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.std == pytest.approx(1.0)

    def test_two_sigma_band(self):
        s = summarize([10.0, 12.0, 8.0, 10.0])
        lo, hi = s.two_sigma_band()
        assert lo == pytest.approx(s.mean - 2 * s.std)
        assert hi == pytest.approx(s.mean + 2 * s.std)

    def test_single_sample(self):
        s = summarize([5.0])
        assert s.std == 0.0
        assert np.isnan(s.sem)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            summarize([1.0, bad, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_bounds_property(self, values):
        s = summarize(values)
        assert s.minimum <= s.mean <= s.maximum


class TestConfidenceInterval:
    def test_contains_mean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(10.0, 2.0, 100)
        lo, hi = confidence_interval(data)
        assert lo < data.mean() < hi

    def test_coverage_roughly_nominal(self):
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(200):
            data = rng.normal(0.0, 1.0, 20)
            lo, hi = confidence_interval(data, level=0.95)
            hits += lo <= 0.0 <= hi
        assert 180 <= hits <= 200

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0])
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], level=1.5)

    def test_degenerate_constant_series(self):
        assert confidence_interval([3.0, 3.0, 3.0]) == (3.0, 3.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            confidence_interval([1.0, bad, 2.0])


class TestComparisonTable:
    def test_rows_and_ratio(self):
        t = ComparisonTable("Fig X")
        row = t.add("phone @20MHz", measured=42.0, paper=43.83, unit="Mbps")
        assert row.ratio == pytest.approx(42.0 / 43.83)
        assert "Fig X" in t.render()
        assert "phone @20MHz" in t.render()
        assert "ratio" in t.render()

    def test_row_without_anchor(self):
        t = ComparisonTable("t")
        row = t.add("free", measured=1.0)
        assert row.ratio is None
        assert "paper" not in row.format(10)

    def test_max_abs_log_ratio(self):
        t = ComparisonTable("t")
        t.add("a", measured=10.0, paper=10.0)
        t.add("b", measured=20.0, paper=10.0)
        assert t.max_abs_log_ratio() == pytest.approx(np.log(2.0))

    def test_empty_render(self):
        assert "(no rows)" in ComparisonTable("t").render()
        assert ComparisonTable("t").max_abs_log_ratio() == 0.0
