"""Property tests for the transport under randomized fault schedules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cspot import (
    CSPOTNode,
    NetworkPath,
    RemoteAppendClient,
    RetryPolicy,
    Transport,
)
from repro.simkernel import Engine


@st.composite
def fault_schedules(draw):
    """Non-overlapping partition windows plus an ack-drop pattern."""
    n_windows = draw(st.integers(min_value=0, max_value=4))
    edges = sorted(
        draw(
            st.lists(
                st.floats(min_value=1.0, max_value=5000.0),
                min_size=2 * n_windows,
                max_size=2 * n_windows,
                unique=True,
            )
        )
    )
    windows = [(edges[2 * i], edges[2 * i + 1]) for i in range(n_windows)]
    drops = draw(st.lists(st.booleans(), min_size=0, max_size=8))
    return windows, drops


@settings(max_examples=40, deadline=None)
@given(schedule=fault_schedules(), n_ops=st.integers(min_value=1, max_value=6))
def test_exactly_once_under_arbitrary_partitions(schedule, n_ops):
    """For any partition schedule and ack-drop pattern, a sequence of
    reliable appends delivers each payload exactly once, in order, as long
    as the path eventually heals (windows are finite)."""
    windows, drops = schedule
    engine = Engine(seed=0)
    transport = Transport(engine)
    client = CSPOTNode(engine, "unl")
    server = CSPOTNode(engine, "ucsb")
    server.create_log("data", element_size=64, history_size=256)
    path = NetworkPath("p", one_way_ms=20.0)
    for start, end in windows:
        path.faults.add_partition(start, end)
    drop_iter = iter(drops)
    path.faults.drop_ack = lambda: next(drop_iter, False)  # type: ignore[method-assign]
    transport.connect("unl", "ucsb", path)
    appender = RemoteAppendClient(
        transport, client, server, "data",
        policy=RetryPolicy(max_attempts=10_000, backoff_s=5.0),
    )

    def producer():
        for k in range(n_ops):
            yield appender.append(f"op{k}".encode())

    engine.run(until=engine.process(producer()))
    log = server.logs["data"]
    assert log.last_seqno == n_ops
    assert [e.payload for e in log.scan()] == [
        f"op{k}".encode() for k in range(n_ops)
    ]


@st.composite
def outage_schedules(draw):
    """Non-overlapping node power-loss windows plus partition windows.

    Power windows each target the client or the server node; partitions
    are drawn from a separate edge list so the two fault kinds overlap
    freely with each other (a node can lose power mid-partition).
    """
    n_power = draw(st.integers(min_value=0, max_value=3))
    power_edges = sorted(
        draw(
            st.lists(
                st.floats(min_value=1.0, max_value=4000.0),
                min_size=2 * n_power,
                max_size=2 * n_power,
                unique=True,
            )
        )
    )
    power_windows = [
        (
            power_edges[2 * i],
            power_edges[2 * i + 1],
            draw(st.sampled_from(["client", "server"])),
        )
        for i in range(n_power)
    ]
    n_parts = draw(st.integers(min_value=0, max_value=2))
    part_edges = sorted(
        draw(
            st.lists(
                st.floats(min_value=1.0, max_value=4000.0),
                min_size=2 * n_parts,
                max_size=2 * n_parts,
                unique=True,
            )
        )
    )
    partitions = [
        (part_edges[2 * i], part_edges[2 * i + 1]) for i in range(n_parts)
    ]
    return power_windows, partitions


@settings(max_examples=30, deadline=None)
@given(schedule=outage_schedules(), n_ops=st.integers(min_value=1, max_value=5))
def test_exactly_once_under_power_loss_and_partitions(schedule, n_ops):
    """Random node power-loss windows -- on either end of the path --
    composed with random partitions still converge to exactly-once: the
    server's dedup table and the client's retry loop together absorb every
    crash/retry interleaving, because storage survives power loss."""
    power_windows, partitions = schedule
    engine = Engine(seed=0)
    transport = Transport(engine)
    client = CSPOTNode(engine, "unl")
    server = CSPOTNode(engine, "ucsb")
    server.create_log("data", element_size=64, history_size=256)
    path = NetworkPath("p", one_way_ms=20.0)
    for start, end in partitions:
        path.faults.add_partition(start, end)
    transport.connect("unl", "ucsb", path)
    nodes = {"client": client, "server": server}

    def outage(node, start, end):
        yield engine.timeout(start)
        node.power_off()
        yield engine.timeout(end - start)
        node.power_on()

    for start, end, who in power_windows:
        engine.process(outage(nodes[who], start, end))
    appender = RemoteAppendClient(
        transport, client, server, "data",
        policy=RetryPolicy(max_attempts=10_000, backoff_s=5.0),
    )

    def producer():
        for k in range(n_ops):
            yield appender.append(f"op{k}".encode())

    engine.run(until=engine.process(producer()))
    log = server.logs["data"]
    assert log.last_seqno == n_ops
    assert [e.payload for e in log.scan()] == [
        f"op{k}".encode() for k in range(n_ops)
    ]


@settings(max_examples=30, deadline=None)
@given(
    one_way_ms=st.floats(min_value=1.0, max_value=100.0),
    payload_size=st.integers(min_value=0, max_value=1024),
    cached=st.booleans(),
)
def test_append_latency_structure_property(one_way_ms, payload_size, cached):
    """Fault-free append latency is exactly (4 or 2) legs + append cost,
    for any leg latency and payload that fits."""
    engine = Engine(seed=0)
    transport = Transport(engine)
    client = CSPOTNode(engine, "a")
    server = CSPOTNode(engine, "b")
    server.create_log("data", element_size=1024)
    transport.connect("a", "b", NetworkPath("p", one_way_ms=one_way_ms))
    proc = transport.remote_append(
        client, server, "data", bytes(payload_size), "c", "op",
        cached_element_size=1024 if cached else None,
    )
    seqno = engine.run(until=proc)
    assert seqno == 1
    legs = 2 if cached else 4
    assert engine.now == pytest.approx(legs * one_way_ms / 1e3 + 0.001)
