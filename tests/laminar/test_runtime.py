"""Tests for the CSPOT-backed Laminar runtime (single- and multi-host)."""

import numpy as np
import pytest

from repro.cspot import CSPOTNode, NetworkPath, Transport
from repro.laminar import (
    DataflowGraph,
    F64,
    GraphError,
    I64,
    LaminarRuntime,
    TypeError_,
    build_change_detection_graph,
)
from repro.simkernel import Engine
from tests.laminar.reference import run_reference


def diamond(host_a=None, host_b=None):
    g = DataflowGraph("diamond")
    a = g.operand("a", I64)
    d = g.operand("doubled", I64)
    t = g.operand("tripled", I64)
    out = g.operand("out", I64)
    g.node("double", lambda x: 2 * x, inputs=[a], output=d, host=host_a)
    g.node("triple", lambda x: 3 * x, inputs=[a], output=t, host=host_a)
    g.node("combine", lambda x, y: x + y, inputs=[d, t], output=out, host=host_b)
    return g


class TestSingleHost:
    def test_runs_diamond(self):
        engine = Engine(seed=0)
        host = CSPOTNode(engine, "ucsb")
        rt = LaminarRuntime(engine, diamond(), hosts={"ucsb": host})
        rt.submit(0, {"a": 4})
        engine.run(until=rt.epoch_done(0))
        assert rt.value("out", 0) == 20

    def test_matches_reference_semantics(self):
        engine = Engine(seed=0)
        host = CSPOTNode(engine, "ucsb")
        rt = LaminarRuntime(engine, diamond(), hosts={"ucsb": host})
        rt.submit(0, {"a": 7})
        engine.run(until=rt.epoch_done(0))
        reference = run_reference(diamond(), {"a": 7})
        for name in ("doubled", "tripled", "out"):
            assert rt.value(name, 0) == reference[name]

    def test_multiple_epochs(self):
        engine = Engine(seed=0)
        host = CSPOTNode(engine, "ucsb")
        rt = LaminarRuntime(engine, diamond(), hosts={"ucsb": host})
        rt.submit(0, {"a": 1})
        rt.submit(1, {"a": 2})
        engine.run(until=rt.epoch_done(1))
        engine.run(until=rt.epoch_done(0))
        assert rt.value("out", 0) == 5
        assert rt.value("out", 1) == 10

    def test_operand_logs_created_on_host(self):
        engine = Engine(seed=0)
        host = CSPOTNode(engine, "ucsb")
        LaminarRuntime(engine, diamond(), hosts={"ucsb": host})
        for op in ("a", "doubled", "tripled", "out"):
            assert f"lam.diamond.{op}" in host.logs

    def test_value_before_binding_raises(self):
        engine = Engine(seed=0)
        host = CSPOTNode(engine, "ucsb")
        rt = LaminarRuntime(engine, diamond(), hosts={"ucsb": host})
        with pytest.raises(KeyError):
            rt.value("out", 0)

    def test_submit_validation(self):
        engine = Engine(seed=0)
        host = CSPOTNode(engine, "ucsb")
        g = DataflowGraph("sum")
        a = g.operand("a", F64)
        b = g.operand("b", I64)
        out = g.operand("out", F64)
        g.node("add", lambda x, y: x + y, inputs=[a, b], output=out)
        rt = LaminarRuntime(engine, g, hosts={"ucsb": host})
        log_a = host.get_log("lam.sum.a")
        with pytest.raises(GraphError, match="missing source"):
            rt.submit(0, {})
        with pytest.raises(GraphError, match="non-source"):
            rt.submit(0, {"a": 1.0, "b": 2, "out": 2.0})
        for epoch in (-1, 1.5, True):
            with pytest.raises(ValueError, match="non-negative int"):
                rt.submit(epoch, {"a": 1.0, "b": 2})
        # A bad value anywhere rejects the whole epoch before any append,
        # so the corrected submit is the epoch's only binding.
        with pytest.raises(TypeError_, match="source 'b'"):
            rt.submit(0, {"a": 1.0, "b": "oops"})
        assert log_a.last_seqno == 0
        with pytest.raises(KeyError):
            rt.value("a", 0)
        rt.submit(0, {"a": 9.0, "b": 2})
        engine.run(until=rt.epoch_done(0))
        assert rt.value("out", 0) == 11.0
        # Single assignment: an epoch, finished or not, binds once.
        with pytest.raises(TypeError_, match="single assignment"):
            rt.submit(0, {"a": 5.0, "b": 5})
        assert log_a.last_seqno == 1
        assert rt.value("a", 0) == 9.0

    def test_typed_outputs_checked(self):
        engine = Engine(seed=0)
        host = CSPOTNode(engine, "ucsb")
        g = DataflowGraph("g")
        x = g.operand("x", I64)
        y = g.operand("y", F64)
        g.node("bad", lambda v: "string", inputs=[x], output=y)
        rt = LaminarRuntime(engine, g, hosts={"ucsb": host})
        rt.submit(0, {"x": 1})
        with pytest.raises(TypeError_, match="output 'y'"):
            engine.run(until=rt.epoch_done(0))
        assert host.get_log("lam.g.y").last_seqno == 0


class TestDistributed:
    def _build(self, engine, partition_until=None):
        unl = CSPOTNode(engine, "unl")
        ucsb = CSPOTNode(engine, "ucsb")
        transport = Transport(engine)
        path = NetworkPath("unl<->ucsb", one_way_ms=10.0)
        if partition_until is not None:
            path.faults.add_partition(0.0, partition_until)
        transport.connect("unl", "ucsb", path)
        g = diamond(host_a="unl", host_b="ucsb")
        rt = LaminarRuntime(
            engine, g, hosts={"unl": unl, "ucsb": ucsb}, transport=transport
        )
        return rt

    def test_cross_host_execution(self):
        engine = Engine(seed=0)
        rt = self._build(engine)
        rt.submit(0, {"a": 4})
        engine.run(until=rt.epoch_done(0))
        assert rt.value("out", 0) == 20

    def test_cross_host_binding_takes_network_time(self):
        engine = Engine(seed=0)
        rt = self._build(engine)
        rt.submit(0, {"a": 4})
        engine.run(until=rt.epoch_done(0))
        # double/triple outputs must cross unl -> ucsb: >= 2 appends of
        # 4 x 10 ms legs each.
        assert engine.now >= 0.04

    def test_partition_delays_but_does_not_lose_the_epoch(self):
        engine = Engine(seed=0)
        rt = self._build(engine, partition_until=5.0)
        rt.submit(0, {"a": 4})
        engine.run(until=rt.epoch_done(0))
        assert rt.value("out", 0) == 20
        assert engine.now > 5.0  # had to wait out the partition

    def test_node_fires_only_once_every_input_is_bound(self):
        # Strict semantics: `combine` holds `a` at ucsb from the submit, but
        # `doubled` crosses a link partitioned for the first 5 s.
        engine = Engine(seed=0)
        transport = Transport(engine)
        path = NetworkPath("unl<->ucsb", one_way_ms=10.0)
        path.faults.add_partition(0.0, 5.0)
        transport.connect("unl", "ucsb", path)
        g = DataflowGraph("strict")
        a = g.operand("a", I64)
        doubled = g.operand("doubled", I64)
        out = g.operand("out", I64)
        g.node("double", lambda x: 2 * x, inputs=[a], output=doubled, host="unl")
        combine = g.node(
            "combine", lambda x, y: x + y, inputs=[a, doubled], output=out,
            host="ucsb",
        )
        hosts = {"unl": CSPOTNode(engine, "unl"), "ucsb": CSPOTNode(engine, "ucsb")}
        rt = LaminarRuntime(engine, g, hosts=hosts, transport=transport)
        rt.submit(0, {"a": 4})
        engine.run(until=4.0)
        assert combine.firings == 0
        with pytest.raises(KeyError):
            rt.value("out", 0)
        engine.run(until=rt.epoch_done(0))
        assert engine.now > 5.0
        assert combine.firings == 1
        assert rt.value("out", 0) == 12

    def test_distributed_without_transport_rejected(self):
        engine = Engine(seed=0)
        unl = CSPOTNode(engine, "unl")
        ucsb = CSPOTNode(engine, "ucsb")
        g = diamond(host_a="unl", host_b="ucsb")
        with pytest.raises(ValueError, match="requires a transport"):
            LaminarRuntime(engine, g, hosts={"unl": unl, "ucsb": ucsb})

    def test_unknown_host_placement_rejected(self):
        engine = Engine(seed=0)
        host = CSPOTNode(engine, "ucsb")
        g = diamond(host_a="mars", host_b="mars")
        with pytest.raises(GraphError, match="unknown host"):
            LaminarRuntime(engine, g, hosts={"ucsb": host})


class TestChangeDetectionGraphOnRuntime:
    def test_detects_obvious_change(self):
        engine = Engine(seed=0)
        host = CSPOTNode(engine, "ucsb")
        g = build_change_detection_graph()
        rt = LaminarRuntime(engine, g, hosts={"ucsb": host})
        rng = np.random.default_rng(0)
        prev = rng.normal(5.0, 0.3, size=6)
        cur = rng.normal(9.0, 0.3, size=6)
        rt.submit(0, {"current": cur, "previous": prev})
        engine.run(until=rt.epoch_done(0))
        assert rt.value("alert", 0) is True or rt.value("alert", 0) == True  # noqa: E712

    def test_no_alert_on_identical_statistics(self):
        engine = Engine(seed=0)
        host = CSPOTNode(engine, "ucsb")
        g = build_change_detection_graph()
        rt = LaminarRuntime(engine, g, hosts={"ucsb": host})
        rng = np.random.default_rng(0)
        prev = rng.normal(5.0, 0.3, size=6)
        cur = rng.normal(5.0, 0.3, size=6)
        rt.submit(0, {"current": cur, "previous": prev})
        engine.run(until=rt.epoch_done(0))
        assert not rt.value("alert", 0)

    def test_distributed_change_detection(self):
        # Tests at UNL (in the 5G network), vote at UCSB -- one of the
        # paper's permitted deployments.
        engine = Engine(seed=0)
        unl = CSPOTNode(engine, "unl")
        ucsb = CSPOTNode(engine, "ucsb")
        transport = Transport(engine)
        transport.connect("unl", "ucsb", NetworkPath("p", one_way_ms=25.0))
        g = build_change_detection_graph(test_host="unl", vote_host="ucsb")
        rt = LaminarRuntime(
            engine, g, hosts={"unl": unl, "ucsb": ucsb}, transport=transport
        )
        rng = np.random.default_rng(1)
        rt.submit(0, {
            "current": rng.normal(9.0, 0.2, 6),
            "previous": rng.normal(4.0, 0.2, 6),
        })
        engine.run(until=rt.epoch_done(0))
        assert rt.value("alert", 0)

    def test_matches_reference_on_seeded_windows(self):
        # The paper's program on its two-host deployment agrees with the
        # reference on every verdict, for 24 window pairs whose shifts run
        # from none through the tests' decision threshold (where the three
        # tests split) to a clear change.
        engine = Engine(seed=0)
        transport = Transport(engine)
        transport.connect("unl", "ucsb", NetworkPath("p", one_way_ms=25.0))
        g = build_change_detection_graph(test_host="unl", vote_host="ucsb")
        hosts = {"unl": CSPOTNode(engine, "unl"), "ucsb": CSPOTNode(engine, "ucsb")}
        rt = LaminarRuntime(engine, g, hosts=hosts, transport=transport)
        verdicts = ("welch_t_different", "mann_whitney_different", "ks_different")
        expected = []
        for epoch, shift in enumerate(np.linspace(0.0, 1.5, 24)):
            rng = np.random.default_rng(epoch)
            windows = {
                "previous": rng.normal(5.0, 0.5, 6),
                "current": rng.normal(5.0 + shift, 0.5, 6),
            }
            expected.append(run_reference(g, windows))
            rt.submit(epoch, windows)
        for epoch, reference in enumerate(expected):
            engine.run(until=rt.epoch_done(epoch))
            for name in verdicts + ("alert",):
                assert rt.value(name, epoch) == reference[name], (epoch, name)
        votes = [sum(ref[name] for name in verdicts) for ref in expected]
        assert {0, 3} < set(votes)  # a split vote, on top of clear cases
        assert {ref["alert"] for ref in expected} == {True, False}
