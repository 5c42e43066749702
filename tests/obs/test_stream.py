"""Streaming sketches and rates: accuracy, merging, and the sink seams.

The acceptance property: sketch quantiles match exact ``numpy`` quantiles
within the configured relative-error bound on >= 10k-sample populations,
for every distribution shape the fabric produces (lognormal latency
tails, uniform, bimodal, negative-valued residuals).
"""

import json
import math

import numpy as np
import pytest

from repro.obs import (
    MetricsRegistry,
    QuantileSketch,
    StreamAggregator,
    Tracer,
    WindowedRate,
)

QUANTILES = (0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0)


def exact_lower(values, q):
    """The sample at 0-based rank floor(q*(n-1)) -- the sketch's target."""
    return float(np.quantile(np.asarray(values), q, method="lower"))


def assert_within_bound(sketch, values, alpha):
    for q in QUANTILES:
        exact = exact_lower(values, q)
        est = sketch.quantile(q)
        if exact == 0.0:
            assert abs(est) <= 1e-9, f"q={q}: est {est} for exact 0"
        else:
            rel = abs(est - exact) / abs(exact)
            assert rel <= alpha + 1e-12, (
                f"q={q}: estimate {est} vs exact {exact} "
                f"(rel err {rel:.5f} > {alpha})"
            )


class TestQuantileSketchAccuracy:
    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05])
    def test_lognormal_tail_within_bound(self, alpha):
        rng = np.random.default_rng(42)
        values = rng.lognormal(mean=0.0, sigma=1.5, size=20_000)
        sketch = QuantileSketch(relative_error=alpha)
        for v in values:
            sketch.add(v)
        assert_within_bound(sketch, values, alpha)

    def test_uniform_within_bound(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.5, 100.0, size=12_000)
        sketch = QuantileSketch(relative_error=0.01)
        for v in values:
            sketch.add(v)
        assert_within_bound(sketch, values, 0.01)

    def test_bimodal_latency_within_bound(self):
        # The chaos regime: a fast mode (healthy appends ~100 ms) and a
        # slow mode (retry storms, seconds) -- the shape burn rates see.
        rng = np.random.default_rng(3)
        fast = rng.normal(0.1, 0.01, size=9_000).clip(min=1e-4)
        slow = rng.normal(5.0, 1.0, size=3_000).clip(min=0.5)
        values = np.concatenate([fast, slow])
        rng.shuffle(values)
        sketch = QuantileSketch(relative_error=0.01)
        for v in values:
            sketch.add(v)
        assert_within_bound(sketch, values, 0.01)

    def test_negative_and_mixed_sign_within_bound(self):
        rng = np.random.default_rng(11)
        values = rng.normal(0.0, 10.0, size=15_000)
        values = values[np.abs(values) > 1e-6]  # keep the zero bucket out
        sketch = QuantileSketch(relative_error=0.01)
        for v in values:
            sketch.add(v)
        assert_within_bound(sketch, values, 0.01)

    def test_order_independent_state(self):
        rng = np.random.default_rng(5)
        values = rng.lognormal(size=10_000)
        a, b = QuantileSketch(0.01), QuantileSketch(0.01)
        for v in values:
            a.add(v)
        for v in reversed(values):
            b.add(v)
        assert a.to_dict()["bins"] == b.to_dict()["bins"]
        assert a.quantile(0.95) == b.quantile(0.95)


class TestQuantileSketchMechanics:
    def test_zero_bucket(self):
        sketch = QuantileSketch(0.01)
        for v in (0.0, 1e-12, -1e-12, 2.0):
            sketch.add(v)
        assert sketch.zero_count == 3
        assert sketch.quantile(0.5) == 0.0
        assert sketch.count == 4

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            QuantileSketch(0.01).add(float("nan"))

    def test_empty_sketch(self):
        sketch = QuantileSketch(0.01)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean == 0.0
        assert len(sketch) == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="relative_error"):
            QuantileSketch(relative_error=0.0)
        with pytest.raises(ValueError, match="relative_error"):
            QuantileSketch(relative_error=1.0)
        with pytest.raises(ValueError, match="max_bins"):
            QuantileSketch(max_bins=1)
        with pytest.raises(ValueError, match="quantile"):
            QuantileSketch().quantile(1.5)

    def test_min_max_mean_exact(self):
        values = [0.5, 3.0, 7.25, 0.125]
        sketch = QuantileSketch(0.01)
        for v in values:
            sketch.add(v)
        assert sketch.min == 0.125
        assert sketch.max == 7.25
        assert sketch.mean == pytest.approx(sum(values) / len(values))

    def test_estimates_clamped_to_observed_range(self):
        sketch = QuantileSketch(0.05)
        sketch.add(10.0)
        assert sketch.quantile(0.0) == 10.0
        assert sketch.quantile(1.0) == 10.0

    def test_max_bins_collapse_bounds_memory(self):
        sketch = QuantileSketch(relative_error=0.001, max_bins=64)
        rng = np.random.default_rng(9)
        # Huge dynamic range at tight alpha would want thousands of bins.
        for v in rng.uniform(1e-6, 1e6, size=5_000):
            sketch.add(v)
        assert len(sketch.to_dict()["bins"]) <= 64
        assert sketch.collapsed > 0
        # Collapse degrades only the low quantiles; the tail stays exact.
        values = sorted(rng.uniform(1e-6, 1e6, size=0).tolist())
        assert sketch.quantile(0.99) > 0

    def test_merge_matches_single_sketch(self):
        rng = np.random.default_rng(13)
        values = rng.lognormal(size=10_000)
        full = QuantileSketch(0.01)
        shards = [QuantileSketch(0.01) for _ in range(4)]
        for i, v in enumerate(values):
            full.add(v)
            shards[i % 4].add(v)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        # Bins, counts, and extremes merge exactly; only the float sum
        # differs by addition order.
        da, df = merged.to_dict(), full.to_dict()
        assert da["bins"] == df["bins"]
        assert da["negative_bins"] == df["negative_bins"]
        assert da["count"] == df["count"]
        assert da["min"] == df["min"] and da["max"] == df["max"]
        assert da["sum"] == pytest.approx(df["sum"])
        for q in QUANTILES:
            assert merged.quantile(q) == full.quantile(q)

    @pytest.mark.parametrize("values", [[1.0, 0.0, -0.0], [-0.0, 1.0, 0.0]])
    def test_a_zero_extreme_is_positive_zero(self, values):
        """Which signed zero came first does not show: the stream split
        anywhere, and fed per value or per array, serializes alike."""
        whole, by_array = QuantileSketch(0.01), QuantileSketch(0.01)
        for v in values:
            whole.add(v)
        by_array.add_array(np.array(values))
        head, tail = QuantileSketch(0.01), QuantileSketch(0.01)
        head.add(values[0])
        tail.add_array(np.array(values[1:]))
        assert math.copysign(1.0, whole.min) == 1.0
        expected = json.dumps(whole.to_dict())
        assert json.dumps(by_array.to_dict()) == expected
        assert json.dumps(head.merge(tail).to_dict()) == expected

    def test_merge_requires_same_error_bound(self):
        with pytest.raises(ValueError, match="error bounds"):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_to_dict_is_json_ready_and_deterministic(self):
        sketch = QuantileSketch(0.01)
        for v in (0.1, -2.0, 0.0, 5.0):
            sketch.add(v)
        text = json.dumps(sketch.to_dict(), sort_keys=True)
        assert json.loads(text)["count"] == 4


class TestWindowedRate:
    def test_rate_over_window(self):
        window = WindowedRate(window_s=60.0, resolution=6)
        for t in range(0, 60, 10):
            window.observe(float(t))
        assert window.events(59.0) == 6
        assert window.rate(59.0) == pytest.approx(6 / 60.0)

    def test_old_events_evicted(self):
        window = WindowedRate(window_s=10.0, resolution=10)
        window.observe(0.0)
        window.observe(1.0)
        window.observe(100.0)
        assert window.events(100.0) == 1

    def test_value_rate(self):
        window = WindowedRate(window_s=10.0)
        window.observe(0.0, value=100.0)
        window.observe(1.0, value=300.0)
        assert window.value_sum(5.0) == 400.0
        assert window.value_rate(5.0) == pytest.approx(40.0)

    def test_memory_bounded_by_resolution(self):
        window = WindowedRate(window_s=60.0, resolution=12)
        for i in range(100_000):
            window.observe(i * 0.01)
        assert len(window._buckets) <= 12 + 1

    def test_time_must_not_go_backwards(self):
        window = WindowedRate(window_s=10.0)
        window.observe(5.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            window.observe(4.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="window_s"):
            WindowedRate(0.0)
        with pytest.raises(ValueError, match="resolution"):
            WindowedRate(10.0, resolution=0)


class TestStreamAggregator:
    def test_span_sink_via_tracer_subscribe(self):
        tracer = Tracer()
        agg = tracer.subscribe(StreamAggregator())
        for i in range(100):
            tracer.record("cspot.append", float(i), float(i) + 0.1)
        sketch = agg.sketch("span:cspot.append")
        assert sketch.count == 100
        assert sketch.quantile(0.5) == pytest.approx(0.1, rel=0.01)

    def test_metric_sink_with_labels(self):
        registry = MetricsRegistry()
        agg = StreamAggregator()
        registry.subscribe(agg)
        hist = registry.histogram("radio.ue_throughput_mbps")
        hist.observe(10.0, ue="a")
        hist.observe(20.0, ue="a")
        hist.observe(90.0, ue="b")
        # Aggregate key plus one canonical per-label-set key.
        assert agg.sketch("metric:radio.ue_throughput_mbps").count == 3
        assert agg.sketch("metric:radio.ue_throughput_mbps{ue=a}").count == 2
        assert agg.sketch("metric:radio.ue_throughput_mbps{ue=b}").count == 1

    def test_clock_stamps_metric_rates(self):
        now = {"t": 0.0}
        agg = StreamAggregator(rate_window_s=10.0).bind_clock(lambda: now["t"])
        registry = MetricsRegistry()
        registry.subscribe(agg)
        counter = registry.counter("sim.events")
        for t in range(5):
            now["t"] = float(t)
            counter.inc()
        assert agg.rate("metric:sim.events", 4.0) == pytest.approx(5 / 10.0)

    def test_unknown_key_is_empty(self):
        agg = StreamAggregator()
        assert agg.quantile("span:nope", 0.5) == 0.0
        assert agg.rate("span:nope", 100.0) == 0.0
        assert agg.keys() == []

    def test_table_renders(self):
        tracer = Tracer()
        agg = tracer.subscribe(StreamAggregator())
        tracer.record("x", 0.0, 1.0)
        lines = agg.table()
        assert any("span:x" in line for line in lines)

    def test_to_json_deterministic(self):
        def build():
            tracer = Tracer()
            agg = tracer.subscribe(StreamAggregator())
            for i in range(50):
                tracer.record("s", float(i), float(i) + 0.01 * (i % 5 + 1))
            return agg.to_json()

        assert build() == build()

    def test_error_bound_guarantee_analytically(self):
        # gamma = (1+a)/(1-a) makes the bucket-midpoint estimate's worst
        # relative error exactly (gamma-1)/(gamma+1) = a.
        alpha = 0.02
        sketch = QuantileSketch(relative_error=alpha)
        gamma = (1 + alpha) / (1 - alpha)
        assert (gamma - 1) / (gamma + 1) == pytest.approx(alpha)
        # Worst case: a value at a bucket's lower edge.
        edge = gamma**10 * (1 + 1e-12)
        sketch.add(edge)
        est = sketch.quantile(0.5)
        assert abs(est - edge) / edge <= alpha + 1e-9
        assert math.isfinite(est)


class TestWallMetricFilter:
    def test_wall_metrics_dropped_by_default(self):
        registry = MetricsRegistry()
        agg = StreamAggregator()
        registry.subscribe(agg)
        registry.series("cfd.solve_wall_s").append(0.0, 0.123)
        registry.counter("cfd.solves").inc()
        assert agg.keys() == ["metric:cfd.solves"]

    def test_wall_metrics_kept_when_opted_in(self):
        registry = MetricsRegistry()
        agg = StreamAggregator(include_wall_metrics=True)
        registry.subscribe(agg)
        registry.series("cfd.solve_wall_s").append(0.0, 0.123)
        assert "metric:cfd.solve_wall_s" in agg.keys()
