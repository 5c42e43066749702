"""Stream/sketch merge algebra at the coordinator boundary."""

import json

import numpy as np
import pytest

from repro.obs.stream import QuantileSketch
from repro.parallel import (
    canonical_json,
    canonical_jsonl,
    merge_sketches,
    merge_streams,
    stream_key,
)


def _rec(t, shard, seq, **extra):
    return {"t": t, "shard": shard, "seq": seq, **extra}


class TestStreamMerge:
    def test_interleaves_by_time(self):
        a = [_rec(0.0, 0, 0), _rec(2.0, 0, 1)]
        b = [_rec(1.0, 1, 0), _rec(3.0, 1, 1)]
        merged = merge_streams([a, b])
        assert [r["t"] for r in merged] == [0.0, 1.0, 2.0, 3.0]

    def test_simultaneous_records_break_ties_by_shard_then_seq(self):
        a = [_rec(5.0, 2, 0), _rec(5.0, 2, 1)]
        b = [_rec(5.0, 0, 0)]
        c = [_rec(5.0, 1, 0)]
        merged = merge_streams([a, b, c])
        assert [(r["shard"], r["seq"]) for r in merged] == [
            (0, 0), (1, 0), (2, 0), (2, 1),
        ]

    def test_merge_order_of_inputs_is_irrelevant(self):
        a = [_rec(0.0, 0, 0), _rec(1.0, 0, 1)]
        b = [_rec(0.0, 1, 0), _rec(1.0, 1, 1)]
        assert merge_streams([a, b]) == merge_streams([b, a])

    def test_missing_key_field_raises(self):
        with pytest.raises(ValueError, match="total-order key"):
            merge_streams([[{"t": 0.0, "shard": 0}]])

    def test_stream_key_coerces_types(self):
        assert stream_key({"t": 1, "shard": 2.0, "seq": 3}) == (1.0, 2, 3)


class TestSketchMerge:
    def test_merge_of_partition_equals_whole(self):
        rng = np.random.default_rng(77)
        values = rng.lognormal(15.0, 1.0, size=3000)
        whole = QuantileSketch.identity(0.01)
        whole.add_array(values)
        parts = []
        for chunk in np.array_split(values, 7):
            s = QuantileSketch.identity(0.01)
            s.add_array(chunk)
            parts.append(s)
        merged = merge_sketches(parts, 0.01)
        assert merged.to_dict() == whole.to_dict()

    def test_merge_of_nothing_is_identity(self):
        merged = merge_sketches((), 0.01)
        assert merged.count == 0
        assert merged.sum == 0.0


class TestCanonicalJson:
    def test_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_jsonl_round_trips(self):
        records = [_rec(0.0, 0, 0, kind="x"), _rec(1.0, 1, 0, kind="y")]
        text = canonical_jsonl(records)
        lines = text.splitlines()
        assert len(lines) == 2
        assert [json.loads(line) for line in lines] == records
