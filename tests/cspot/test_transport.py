"""Tests for the CSPOT transport: the two-RTT protocol, retry/dedup
exactly-once semantics, the size-cache optimization and fault tolerance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cspot import (
    AppendError,
    CSPOTNode,
    DedupTable,
    ElementSizeError,
    NetworkPath,
    NodeDownError,
    PartitionedError,
    RemoteAppendClient,
    RetryPolicy,
    Transport,
)
from repro.cspot.boundary import CrossShardLink
from repro.cspot.paths import testbed_paths as table1_paths
from repro.cspot.transport import RetriesExhausted, retry
from repro.simkernel import Engine


def make_pair(engine, one_way_ms=10.0, jitter_ms=0.0, element_size=1024):
    transport = Transport(engine)
    client = CSPOTNode(engine, "unl")
    server = CSPOTNode(engine, "ucsb")
    server.create_log("telemetry", element_size=element_size, history_size=256)
    path = NetworkPath("unl<->ucsb", one_way_ms=one_way_ms, jitter_ms=jitter_ms)
    transport.connect("unl", "ucsb", path)
    return transport, client, server, path


class TestDedupTable:
    def test_miss_then_hit(self):
        t = DedupTable()
        assert t.check("c", "op1") is None
        t.record("c", "op1", 7)
        assert t.check("c", "op1") == 7
        assert t.hits == 1 and t.misses == 1

    def test_conflicting_record_rejected(self):
        t = DedupTable()
        t.record("c", "op1", 7)
        with pytest.raises(ValueError):
            t.record("c", "op1", 8)

    def test_lru_eviction(self):
        t = DedupTable(capacity=2)
        t.record("c", "a", 1)
        t.record("c", "b", 2)
        t.record("c", "c", 3)
        assert t.check("c", "a") is None  # evicted
        assert t.check("c", "c") == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DedupTable(capacity=0)


class TestProtocolLatency:
    def test_uncached_append_costs_two_round_trips(self):
        engine = Engine(seed=0)
        transport, client, server, _ = make_pair(engine, one_way_ms=10.0)
        proc = transport.remote_append(
            client, server, "telemetry", b"x" * 100, "c1", "op1"
        )
        seqno = engine.run(until=proc)
        assert seqno == 1
        # 4 legs x 10 ms + 1 ms append cost.
        assert engine.now == pytest.approx(0.041)

    def test_cached_append_halves_latency(self):
        engine = Engine(seed=0)
        transport, client, server, _ = make_pair(engine, one_way_ms=10.0)
        proc = transport.remote_append(
            client, server, "telemetry", b"x", "c1", "op1",
            cached_element_size=1024,
        )
        engine.run(until=proc)
        # 2 legs x 10 ms + 1 ms: the paper's "effectively halves".
        assert engine.now == pytest.approx(0.021)

    def test_stale_cache_fails_append(self):
        engine = Engine(seed=0)
        transport, client, server, _ = make_pair(engine)
        proc = transport.remote_append(
            client, server, "telemetry", b"x", "c1", "op1",
            cached_element_size=4096,  # server-side size changed to 1024
        )
        with pytest.raises(ElementSizeError, match="stale"):
            engine.run(until=proc)

    def test_oversized_payload_fails_before_send(self):
        engine = Engine(seed=0)
        transport, client, server, _ = make_pair(engine, element_size=16)
        proc = transport.remote_append(
            client, server, "telemetry", b"y" * 64, "c1", "op1"
        )
        with pytest.raises(ElementSizeError):
            engine.run(until=proc)

    def test_missing_path_rejected(self):
        engine = Engine(seed=0)
        transport = Transport(engine)
        with pytest.raises(AppendError, match="no network path"):
            transport.path("a", "b")


class TestExactlyOnce:
    def test_ack_loss_retry_appends_once(self):
        engine = Engine(seed=0)
        transport, client, server, path = make_pair(engine)
        # Lose the first two acks deterministically.
        drops = iter([True, True, False])
        path.faults.drop_ack = lambda: next(drops)  # type: ignore[method-assign]
        appender = RemoteAppendClient(transport, client, server, "telemetry")
        proc = appender.append(b"payload")
        seqno = engine.run(until=proc)
        assert seqno == 1
        assert appender.attempts == 3
        log = server.logs["telemetry"]
        assert log.last_seqno == 1  # exactly one append despite 3 attempts
        assert log.get(1).payload == b"payload"

    def test_distinct_ops_append_distinct_entries(self):
        engine = Engine(seed=0)
        transport, client, server, _ = make_pair(engine)
        appender = RemoteAppendClient(transport, client, server, "telemetry")

        def body():
            s1 = yield appender.append(b"a")
            s2 = yield appender.append(b"b")
            return (s1, s2)

        proc = engine.process(body())
        assert engine.run(until=proc) == (1, 2)

    def test_two_clients_no_dedup_interference(self):
        engine = Engine(seed=0)
        transport, client, server, _ = make_pair(engine)
        a1 = RemoteAppendClient(transport, client, server, "telemetry")
        a2 = RemoteAppendClient(transport, client, server, "telemetry")

        def body():
            s1 = yield a1.append(b"from-1")
            s2 = yield a2.append(b"from-2")
            return (s1, s2)

        assert engine.run(until=engine.process(body())) == (1, 2)


class TestDelayTolerance:
    def test_partition_blocks_then_retry_succeeds(self):
        engine = Engine(seed=0)
        transport, client, server, path = make_pair(engine)
        path.faults.add_partition(0.0, 5.0)
        appender = RemoteAppendClient(
            transport, client, server, "telemetry",
            policy=RetryPolicy(backoff_s=1.0),
        )
        proc = appender.append(b"parked")
        seqno = engine.run(until=proc)
        assert seqno == 1
        assert engine.now > 5.0  # could not complete before the heal
        assert appender.attempts > 1

    def test_server_power_loss_then_recovery(self):
        engine = Engine(seed=0)
        transport, client, server, _ = make_pair(engine)
        server.power_off()

        def revive():
            yield engine.timeout(3.0)
            server.power_on()

        engine.process(revive())
        appender = RemoteAppendClient(
            transport, client, server, "telemetry",
            policy=RetryPolicy(backoff_s=0.5),
        )
        proc = appender.append(b"x")
        assert engine.run(until=proc) == 1
        assert engine.now >= 3.0

    def test_client_down_is_fatal(self):
        engine = Engine(seed=0)
        transport, client, server, _ = make_pair(engine)
        client.power_off()
        proc = transport.remote_append(client, server, "telemetry", b"x", "c", "o")
        with pytest.raises(NodeDownError):
            engine.run(until=proc)

    def test_retries_exhausted_raises(self):
        """The partition fails each attempt at once, so attempts start at
        0, 1, 3, 7 and 15 s. The error surfaces with the last failure, at
        ``total_budget_s()``: no backoff follows the last attempt."""
        engine = Engine(seed=0)
        transport, client, server, path = make_pair(engine)
        path.faults.add_partition(0.0, 1e9)
        policy = RetryPolicy(max_attempts=5, backoff_s=1.0)
        appender = RemoteAppendClient(
            transport, client, server, "telemetry", policy=policy,
        )
        proc = appender.append(b"x")
        with pytest.raises(AppendError, match="after 5 attempts"):
            engine.run(until=proc)
        assert appender.attempts == 5
        assert policy.total_budget_s() == pytest.approx(15.0)
        assert engine.now == pytest.approx(policy.total_budget_s())

    def test_size_cache_invalidated_on_staleness(self):
        engine = Engine(seed=0)
        transport, client, server, _ = make_pair(engine)
        appender = RemoteAppendClient(
            transport, client, server, "telemetry", use_size_cache=True
        )
        # First append warms the cache.
        engine.run(until=appender.append(b"a"))
        assert appender._cached_size == 1024
        # Server-side recreation with a different element size.
        del server.logs["telemetry"]
        server.create_log("telemetry", element_size=2048)
        # The stale cache fails once; the retry refetches and succeeds.
        attempts = appender.attempts
        seqno = engine.run(until=appender.append(b"b"))
        assert seqno == 1  # fresh log
        assert appender.attempts == attempts + 2
        assert appender._cached_size == 2048

    def test_oversized_payload_is_not_retried(self):
        engine = Engine(seed=0)
        transport, client, server, _ = make_pair(engine, element_size=8)
        appender = RemoteAppendClient(transport, client, server, "telemetry")
        with pytest.raises(ElementSizeError, match="exceeds"):
            engine.run(until=appender.append(b"x" * 9))
        assert appender.attempts == 1


class TestRetry:
    """The one attempt/catch/backoff loop: it waits between attempts only."""

    @staticmethod
    def _run(policy, outcomes, retry_on=(PartitionedError,)):
        """Drive ``retry`` over attempts that fail or succeed in turn;
        returns (attempt start times, end time, result or exception)."""
        engine = Engine(seed=0)
        starts = []

        def attempt(i):
            starts.append(engine.now)
            event = engine.event()
            outcome = outcomes[i]
            if isinstance(outcome, Exception):
                event.fail(outcome)
            else:
                event.succeed(outcome)
            return event

        def body():
            try:
                return (yield from retry(engine, policy, attempt, retry_on))
            except Exception as exc:
                return exc

        result = engine.run(until=engine.process(body()))
        return starts, engine.now, result

    def test_exhausted_loop_raises_with_its_last_failure(self):
        policy = RetryPolicy(max_attempts=8, backoff_s=5.0, max_backoff_s=120.0)
        failures = [PartitionedError(f"try {i}") for i in range(8)]
        starts, end, result = self._run(policy, failures)
        assert starts == [0.0, 5.0, 15.0, 35.0, 75.0, 155.0, 275.0, 395.0]
        # No backoff follows the last attempt.
        assert end == starts[-1] == policy.total_budget_s()
        assert isinstance(result, RetriesExhausted)
        assert result.__cause__ is failures[-1]
        assert "after 8 attempts" in str(result)

    def test_first_success_ends_the_loop(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=1.0)
        starts, end, result = self._run(
            policy, [PartitionedError("a"), PartitionedError("b"), 42]
        )
        assert starts == [0.0, 1.0, 3.0]
        assert (end, result) == (3.0, 42)

    def test_zero_backoff_retries_in_the_same_instant(self):
        policy = RetryPolicy(
            max_attempts=3, backoff_s=0.0, backoff_factor=1.0, max_backoff_s=0.0
        )
        starts, end, result = self._run(policy, [RuntimeError("x")] * 3, (RuntimeError,))
        assert starts == [0.0, 0.0, 0.0] and end == 0.0
        assert isinstance(result, RetriesExhausted)

    def test_other_errors_propagate_at_once(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=1.0)
        error = NodeDownError("not retried here")
        starts, end, result = self._run(policy, [error, 1])
        assert starts == [0.0] and end == 0.0
        assert result is error

    def test_an_attempt_that_cannot_start_is_not_retried(self):
        engine = Engine(seed=0)

        def attempt(_i):
            raise PartitionedError("raised while starting the attempt")

        with pytest.raises(PartitionedError, match="while starting"):
            engine.run(until=engine.process(
                retry(engine, RetryPolicy(), attempt, (PartitionedError,))
            ))


class TestPartitionWindows:
    def test_overlapping_windows_rejected(self):
        from repro.cspot import FaultInjector

        f = FaultInjector()
        f.add_partition(0.0, 10.0)
        with pytest.raises(ValueError, match="overlaps"):
            f.add_partition(5.0, 15.0)

    def test_window_queries(self):
        from repro.cspot import FaultInjector

        f = FaultInjector()
        f.add_partition(10.0, 20.0)
        f.add_partition(30.0, 40.0)
        assert not f.partitioned_at(5.0)
        assert f.partitioned_at(10.0)
        assert f.partitioned_at(19.999)
        assert not f.partitioned_at(20.0)
        assert f.next_heal_after(35.0) == 40.0
        assert f.next_heal_after(25.0) is None

    def test_empty_window_rejected(self):
        from repro.cspot import FaultInjector

        with pytest.raises(ValueError):
            FaultInjector().add_partition(5.0, 5.0)

    def test_invalid_ack_loss_prob(self):
        from repro.cspot import FaultInjector

        with pytest.raises(ValueError):
            FaultInjector(ack_loss_prob=1.0)

    @pytest.mark.parametrize(
        "start, end",
        [(math.nan, 5.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 5.0)],
        ids=["start-nan", "end-nan", "end-inf", "start-minus-inf"],
    )
    def test_non_finite_window_rejected(self, start, end):
        from repro.cspot import FaultInjector

        with pytest.raises(ValueError, match="finite"):
            FaultInjector().add_partition(start, end)


class TestPathValidation:
    @pytest.mark.parametrize(
        "latency",
        [
            {"one_way_ms": math.nan},
            {"one_way_ms": math.inf},
            {"one_way_ms": 10.0, "jitter_ms": math.nan},
            {"one_way_ms": 10.0, "jitter_ms": math.inf},
        ],
        ids=["one-way-nan", "one-way-inf", "jitter-nan", "jitter-inf"],
    )
    def test_non_finite_latency_rejected(self, latency):
        with pytest.raises(ValueError, match="finite"):
            NetworkPath("p", **latency)


def _per_leg_formula_s(one_way_ms, jitter_ms, rng):
    """A leg's draw with the lognormal parameters computed on the spot."""
    if jitter_ms == 0.0:
        return one_way_ms / 1e3
    sigma2 = np.log(1.0 + (jitter_ms / one_way_ms) ** 2)
    mu = np.log(one_way_ms) - 0.5 * sigma2
    return float(rng.lognormal(mu, np.sqrt(sigma2))) / 1e3


class TestLegDraws:
    """The cached lognormal parameters must leave every leg's draw bit for
    bit what the per-leg formula gives: the fabric digests pin them."""

    @pytest.mark.parametrize("key", sorted(table1_paths()))
    def test_cached_parameters_draw_bit_equal(self, key):
        path = table1_paths()[key]
        link = CrossShardLink.from_path(path)
        got, got_link, want = (np.random.default_rng(11) for _ in range(3))
        for _ in range(2000):
            expected = _per_leg_formula_s(path.one_way_ms, path.jitter_ms, want)
            assert path.delay_s(got) == expected
            assert link.delay_s(got_link) == expected

    def test_zero_jitter_is_the_mean_and_draws_nothing(self):
        path = NetworkPath("flat", one_way_ms=4.0, jitter_ms=0.0)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert path.delay_s(rng) == 4.0 / 1e3 == _per_leg_formula_s(4.0, 0.0, rng)
        assert rng.bit_generator.state == before


@settings(max_examples=30, deadline=None)
@given(
    ack_drops=st.lists(st.booleans(), min_size=0, max_size=6),
    n_ops=st.integers(min_value=1, max_value=5),
)
def test_exactly_once_property(ack_drops, n_ops):
    """No matter which acks are lost, each logical operation appends exactly
    one entry, and payloads arrive in operation order."""
    engine = Engine(seed=0)
    transport, client, server, path = make_pair(engine)
    drop_iter = iter(ack_drops)
    path.faults.drop_ack = lambda: next(drop_iter, False)  # type: ignore[method-assign]
    appender = RemoteAppendClient(
        transport, client, server, "telemetry",
        policy=RetryPolicy(backoff_s=0.01),
    )

    def body():
        for i in range(n_ops):
            yield appender.append(f"op-{i}".encode())

    engine.run(until=engine.process(body()))
    log = server.logs["telemetry"]
    assert log.last_seqno == n_ops
    for i in range(n_ops):
        assert log.get(i + 1).payload == f"op-{i}".encode()
