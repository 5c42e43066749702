"""Tests for the CSPOT-backed Laminar runtime (single- and multi-host)."""

import numpy as np
import pytest

from repro.cspot import CSPOTNode, NetworkPath, Transport
from repro.laminar import (
    DataflowGraph,
    GraphError,
    I64,
    LaminarRuntime,
    build_change_detection_graph,
)
from repro.simkernel import Engine


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
        reference = diamond().run_epoch(0, {"a": 7})
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

    def test_compute_cost_advances_clock(self):
        engine = Engine(seed=0)
        host = CSPOTNode(engine, "ucsb")
        g = DataflowGraph("slow")
        x = g.operand("x", I64)
        y = g.operand("y", I64)
        g.node("work", lambda v: v + 1, inputs=[x], output=y, compute_cost_s=10.0)
        rt = LaminarRuntime(engine, g, hosts={"ucsb": host})
        rt.submit(0, {"x": 1})
        engine.run(until=rt.epoch_done(0))
        assert engine.now >= 10.0
        assert rt.value("y", 0) == 2

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
        rt = LaminarRuntime(engine, diamond(), hosts={"ucsb": host})
        with pytest.raises(GraphError, match="missing source"):
            rt.submit(0, {})
        with pytest.raises(GraphError, match="non-source"):
            rt.submit(0, {"a": 1, "out": 2})


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
