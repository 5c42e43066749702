"""Unit + property tests for WooF logs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cspot import CSPOTNode, ElementSizeError, EvictedError, WooF
from repro.simkernel import Engine


class TestWooFBasics:
    def test_append_returns_dense_increasing_seqnos(self):
        log = WooF("t", element_size=64)
        assert [log.append(b"a"), log.append(b"b"), log.append(b"c")] == [1, 2, 3]
        assert log.last_seqno == 3

    def test_get_roundtrip(self):
        log = WooF("t", element_size=64)
        log.append(b"hello", now=5.0)
        entry = log.get(1)
        assert entry.payload == b"hello"
        assert entry.seqno == 1
        assert entry.appended_at == 5.0

    def test_oversized_payload_rejected(self):
        log = WooF("t", element_size=4)
        with pytest.raises(ElementSizeError):
            log.append(b"too big for four")

    def test_non_bytes_rejected(self):
        log = WooF("t", element_size=64)
        with pytest.raises(TypeError):
            log.append("string")  # type: ignore[arg-type]

    def test_get_out_of_range(self):
        log = WooF("t", element_size=8)
        with pytest.raises(KeyError):
            log.get(1)
        log.append(b"x")
        with pytest.raises(KeyError):
            log.get(2)
        with pytest.raises(KeyError):
            log.get(0)

    def test_circular_eviction(self):
        log = WooF("t", element_size=8, history_size=3)
        for i in range(5):
            log.append(f"e{i}".encode())
        assert log.earliest_seqno == 3
        assert len(log) == 3
        with pytest.raises(EvictedError):
            log.get(1)
        assert log.get(5).payload == b"e4"

    def test_latest(self):
        log = WooF("t", element_size=8)
        for i in range(6):
            log.append(f"v{i}".encode())
        assert [e.payload for e in log.latest(3)] == [b"v3", b"v4", b"v5"]
        assert log.latest(100)[0].payload == b"v0"
        assert WooF("e", element_size=8).latest(3) == []

    def test_scan_since(self):
        log = WooF("t", element_size=8)
        for i in range(4):
            log.append(f"v{i}".encode())
        assert [e.seqno for e in log.scan(since_seqno=2)] == [3, 4]
        assert [e.seqno for e in log.scan()] == [1, 2, 3, 4]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            WooF("t", element_size=0)
        with pytest.raises(ValueError):
            WooF("t", element_size=8, history_size=0)

    def test_subscriber_sees_appends(self):
        log = WooF("t", element_size=8)
        seen = []
        log.subscribe(lambda lg, e: seen.append(e.seqno))
        log.append(b"a")
        log.append(b"b")
        assert seen == [1, 2]


@settings(max_examples=100, deadline=None)
@given(
    payloads=st.lists(st.binary(min_size=0, max_size=16), min_size=1, max_size=40),
    history=st.integers(min_value=1, max_value=10),
)
def test_log_invariants_property(payloads, history):
    """Dense seqnos, faithful round trip, exact eviction window."""
    log = WooF("p", element_size=16, history_size=history)
    seqnos = [log.append(p) for p in payloads]
    assert seqnos == list(range(1, len(payloads) + 1))
    n = len(payloads)
    earliest = max(1, n - history + 1)
    assert log.earliest_seqno == earliest
    assert len(log) == n - earliest + 1
    for s in range(earliest, n + 1):
        assert log.get(s).payload == payloads[s - 1]
    for s in range(1, earliest):
        with pytest.raises(EvictedError):
            log.get(s)


@settings(max_examples=50, deadline=None)
@given(payloads=st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=30))
def test_recovery_preserves_state_property(payloads):
    """A power cycle of the hosting node is lossless for resident entries,
    and the next append continues the seqnos."""
    node = CSPOTNode(Engine(seed=0), "pi")
    node.create_log("p", element_size=16, history_size=8)
    for p in payloads:
        node.local_append("p", p)
    node.power_off()
    node.power_on()
    n = len(payloads)
    earliest = max(1, n - 8 + 1)
    log = node.get_log("p")
    assert log.last_seqno == n
    assert log.earliest_seqno == earliest
    assert [e.payload for e in log.scan()] == payloads[earliest - 1:]
    assert node.local_append("p", b"next") == n + 1
