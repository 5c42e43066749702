"""Property tests: the merge algebra behind sharded aggregation is exact.

`QuantileSketch.merge` must form a commutative monoid with
`QuantileSketch.identity` as the unit, and `StreamAggregator.merge` must
reproduce the unsharded snapshot byte-for-byte for *any* partition of the
event stream -- these are the algebraic facts `repro.parallel` relies on
for worker-count-invariant reports.
"""

import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.stream import QuantileSketch, StreamAggregator

REL_ERR = 0.01

#: Every finite double, subnormals and values near the overflow threshold
#: included: sums of these can overflow any float accumulator.
finite_values = st.floats(
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=True,
    width=64,
)

value_lists = st.lists(finite_values, max_size=60)

#: Finite values mixed with both infinities (whose sum is NaN).
values_with_infinities = st.lists(
    st.one_of(finite_values, st.sampled_from([math.inf, -math.inf])),
    max_size=60,
)

metric_events = st.lists(
    st.tuples(
        st.sampled_from(["radio.tput_mbps", "e2e.latency_s", "hpc.queue"]),
        finite_values,
        st.sampled_from([{}, {"cell": "a"}, {"cell": "b", "ue": "gw"}]),
    ),
    max_size=80,
)


def _sketch(values):
    s = QuantileSketch.identity(REL_ERR)
    for v in values:
        s.add(v)
    return s


def _merged(*sketches):
    out = QuantileSketch.identity(REL_ERR)
    for s in sketches:
        out.merge(s)
    return out


def _vector(values):
    s = QuantileSketch.identity(REL_ERR)
    s.add_array(np.asarray(values, dtype=np.float64))
    return s


def _snapshot(sketch):
    """Canonical JSON: unlike dict equality, NaN compares equal to NaN."""
    return json.dumps(sketch.to_dict(), sort_keys=True)


def _rounded_exact_sum(values):
    exact = sum((Fraction(v) for v in values), Fraction(0))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


class TestSketchMonoid:
    @given(value_lists, value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_commutative(self, a, b):
        ab = _merged(_sketch(a), _sketch(b))
        ba = _merged(_sketch(b), _sketch(a))
        assert ab.to_dict() == ba.to_dict()

    @given(value_lists, value_lists, value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_associative(self, a, b, c):
        left = _merged(_merged(_sketch(a), _sketch(b)), _sketch(c))
        right = _merged(_sketch(a), _merged(_sketch(b), _sketch(c)))
        assert left.to_dict() == right.to_dict()

    @given(value_lists)
    @settings(max_examples=60, deadline=None)
    def test_identity_is_a_unit(self, a):
        plain = _sketch(a).to_dict()
        assert _merged(_sketch(a), QuantileSketch.identity(REL_ERR)).to_dict() == plain
        assert _merged(QuantileSketch.identity(REL_ERR), _sketch(a)).to_dict() == plain

    @given(value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_concatenation(self, a):
        # Every 2-way split of the list merges back to the whole.
        whole = _sketch(a).to_dict()
        for cut in range(len(a) + 1):
            split = _merged(_sketch(a[:cut]), _sketch(a[cut:]))
            assert split.to_dict() == whole


class TestVectorizedIngest:
    @given(value_lists)
    @settings(max_examples=60, deadline=None)
    def test_add_array_matches_scalar_adds(self, a):
        assert _vector(a).to_dict() == _sketch(a).to_dict()

    @given(values_with_infinities)
    @settings(max_examples=60, deadline=None)
    def test_add_array_matches_scalar_adds_with_infinities(self, a):
        assert _snapshot(_vector(a)) == _snapshot(_sketch(a))


class TestExactSum:
    @given(value_lists)
    @settings(max_examples=60, deadline=None)
    def test_sum_is_the_correctly_rounded_exact_sum(self, a):
        expected = _rounded_exact_sum(a)
        assert _sketch(a).sum == expected
        assert _vector(a).sum == expected

    def test_intermediate_overflow_cancels(self):
        # A running float sum overflows after the second value; the exact
        # sum is back in range after the third.
        values = [1e308, 1e308, -1e308]
        scalar, vector = _sketch(values), _vector(values)
        assert scalar.sum == 1e308
        assert vector.sum == 1e308
        assert vector.to_dict() == scalar.to_dict()

    def test_sum_beyond_double_range_is_infinite(self):
        assert _sketch([1e308, 1e308]).sum == math.inf
        assert _vector([-1e308, -1e308]).sum == -math.inf


class TestAggregatorPartition:
    @given(metric_events, st.lists(st.integers(0, 3), max_size=80), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_any_partition_reproduces_unsharded_snapshot(
        self, events, owners, n_shards
    ):
        unsharded = StreamAggregator(relative_error=REL_ERR)
        for name, value, labels in events:
            unsharded.on_metric(name, value, labels)

        shards = [
            StreamAggregator(relative_error=REL_ERR) for _ in range(n_shards)
        ]
        for i, (name, value, labels) in enumerate(events):
            owner = owners[i % len(owners)] % n_shards if owners else 0
            shards[owner].on_metric(name, value, labels)

        merged = StreamAggregator(relative_error=REL_ERR)
        for shard in shards:
            merged.merge(shard)

        assert merged.to_json() == unsharded.to_json()

    @given(metric_events)
    @settings(max_examples=40, deadline=None)
    def test_merge_order_is_irrelevant(self, events):
        shards = [StreamAggregator(relative_error=REL_ERR) for _ in range(3)]
        for i, (name, value, labels) in enumerate(events):
            shards[i % 3].on_metric(name, value, labels)
        forward = StreamAggregator(relative_error=REL_ERR)
        for shard in shards:
            forward.merge(shard)
        backward = StreamAggregator(relative_error=REL_ERR)
        for shard in reversed(shards):
            backward.merge(shard)
        assert forward.to_json() == backward.to_json()
