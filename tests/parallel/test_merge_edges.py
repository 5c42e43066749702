"""Edge cases of the deterministic k-way merge layer.

The merge is the last place a worker-layout dependence could hide, so
its edges are pinned: empty streams vanish from the interleave, a
single-shard merge is the identity, and a duplicate ``(t, shard, seq)``
key -- which would make the "total" order depend on input-stream order
-- is rejected loudly.
"""

import pytest

from repro.parallel import (
    canonical_json,
    canonical_jsonl,
    merge_streams,
    stream_key,
)

pytestmark = pytest.mark.filterwarnings("error")


def _rec(t, shard, seq, **extra):
    return {"t": t, "shard": shard, "seq": seq, **extra}


class TestInterleave:
    def test_k_way_interleave_with_empty_streams(self):
        streams = [
            [],
            [_rec(0.0, 1, 0), _rec(2.0, 1, 1)],
            [],
            [_rec(1.0, 3, 0)],
            [],
        ]
        merged = merge_streams(streams)
        assert [r["t"] for r in merged] == [0.0, 1.0, 2.0]
        assert [r["shard"] for r in merged] == [1, 3, 1]

    def test_all_streams_empty(self):
        assert merge_streams([[], [], []]) == []
        assert merge_streams([]) == []

    def test_single_shard_degenerate_is_identity(self):
        stream = [_rec(0.0, 0, 0), _rec(0.0, 0, 1), _rec(5.0, 0, 2)]
        assert merge_streams([stream]) == stream

    def test_ties_break_by_shard_then_seq(self):
        streams = [
            [_rec(1.0, 2, 0)],
            [_rec(1.0, 0, 1)],
            [_rec(1.0, 0, 0), _rec(1.0, 1, 0)],
        ]
        merged = merge_streams(streams)
        assert [stream_key(r) for r in merged] == [
            (1.0, 0, 0),
            (1.0, 0, 1),
            (1.0, 1, 0),
            (1.0, 2, 0),
        ]


class TestDuplicateRejection:
    def test_duplicate_keys_across_streams_rejected_loudly(self):
        streams = [[_rec(1.0, 0, 0, src="a")], [_rec(1.0, 0, 0, src="b")]]
        with pytest.raises(ValueError, match=r"duplicate stream key.*1\.0, 0, 0"):
            merge_streams(streams)

    def test_duplicate_keys_within_one_stream_rejected(self):
        with pytest.raises(ValueError, match="duplicate stream key"):
            merge_streams([[_rec(1.0, 0, 0), _rec(1.0, 0, 0)]])

    def test_missing_key_field_names_the_field(self):
        with pytest.raises(ValueError, match="total-order key"):
            merge_streams([[{"t": 1.0, "shard": 0}]])


class TestCanonicalForms:
    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1.5]}) == '{"a":[1.5],"b":1}'

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_canonical_jsonl_round_trips_order(self):
        records = [_rec(0.0, 0, 0), _rec(1.0, 1, 0)]
        text = canonical_jsonl(records)
        lines = text.splitlines()
        assert len(lines) == 2
        assert text.endswith("\n")
        assert lines[0] == canonical_json(records[0])
