"""Tests for dataflow graph construction, validation and reference execution."""

import pytest

from repro.laminar import DataflowGraph, F64, GraphError, I64, TypeError_
from tests.laminar.reference import run_reference


def diamond():
    """a -> double, triple -> combine: the classic diamond."""
    g = DataflowGraph("diamond")
    a = g.operand("a", I64)
    d = g.operand("doubled", I64)
    t = g.operand("tripled", I64)
    out = g.operand("out", I64)
    g.node("double", lambda x: 2 * x, inputs=[a], output=d)
    g.node("triple", lambda x: 3 * x, inputs=[a], output=t)
    g.node("combine", lambda x, y: x + y, inputs=[d, t], output=out)
    return g


class TestConstruction:
    def test_duplicate_operand_rejected(self):
        g = DataflowGraph("g")
        g.operand("x", I64)
        with pytest.raises(GraphError, match="exists"):
            g.operand("x", I64)

    def test_duplicate_node_rejected(self):
        g = DataflowGraph("g")
        x = g.operand("x", I64)
        g.node("n", lambda v: v, inputs=[x])
        with pytest.raises(GraphError, match="exists"):
            g.node("n", lambda v: v, inputs=[x])

    def test_foreign_operand_rejected(self):
        g1, g2 = DataflowGraph("g1"), DataflowGraph("g2")
        x = g1.operand("x", I64)
        with pytest.raises(GraphError, match="not declared"):
            g2.node("n", lambda v: v, inputs=[x])

    def test_node_needs_inputs(self):
        g = DataflowGraph("g")
        g.operand("x", I64)
        with pytest.raises(ValueError, match="at least one input"):
            g.node("n", lambda: 1, inputs=[])

    def test_single_producer_enforced(self):
        g = DataflowGraph("g")
        x = g.operand("x", I64)
        y = g.operand("y", I64)
        g.node("p1", lambda v: v, inputs=[x], output=y)
        g.node("p2", lambda v: v + 1, inputs=[x], output=y)
        with pytest.raises(GraphError, match="produced by both"):
            g.validate()

    def test_cycle_detected(self):
        g = DataflowGraph("g")
        x = g.operand("x", I64)
        y = g.operand("y", I64)
        g.node("f", lambda v: v, inputs=[x], output=y)
        g.node("gn", lambda v: v, inputs=[y], output=x)
        with pytest.raises(GraphError, match="cycle"):
            g.validate()

    def test_self_loop_detected(self):
        g = DataflowGraph("g")
        x = g.operand("x", I64)
        g.node("f", lambda v: v, inputs=[x], output=x)
        with pytest.raises(GraphError, match="cycle"):
            g.validate()


class TestStructure:
    def test_sources_and_sinks(self):
        g = diamond()
        assert [op.name for op in g.source_operands()] == ["a"]
        # A sink consumes `out` and produces nothing; the sources stay.
        g.node("emit", lambda v: None, inputs=[g.get_operand("out")])
        g.validate()
        assert [n.name for n in g.nodes if n.output is None] == ["emit"]
        assert [op.name for op in g.source_operands()] == ["a"]

    def test_producers_and_consumers(self):
        g = diamond()
        assert g.producers()["out"] == "combine"
        assert {n.name for n in g.consumers("a")} == {"double", "triple"}

    def test_get_missing(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.get_node("ghost")
        with pytest.raises(GraphError):
            g.get_operand("ghost")


class TestReferenceExecution:
    def test_diamond_result(self):
        g = diamond()
        values = run_reference(g, {"a": 4})
        assert values["out"] == 4 * 2 + 4 * 3

    def test_epochs_independent(self):
        # The graph holds no values: each run starts from its own sources.
        g = diamond()
        assert run_reference(g, {"a": 1})["out"] == 5
        assert run_reference(g, {"a": 2})["out"] == 10

    def test_missing_source_rejected(self):
        g = diamond()
        with pytest.raises(GraphError, match="missing source"):
            run_reference(g, {})

    def test_non_source_input_rejected(self):
        g = diamond()
        with pytest.raises(GraphError, match="non-source"):
            run_reference(g, {"a": 1, "out": 9})

    def test_typed_sources_checked(self):
        with pytest.raises(TypeError_, match="source 'a'"):
            run_reference(diamond(), {"a": "four"})

    def test_typed_outputs_checked(self):
        g = DataflowGraph("g")
        x = g.operand("x", I64)
        y = g.operand("y", F64)
        g.node("bad", lambda v: "string", inputs=[x], output=y)
        with pytest.raises(TypeError_):
            run_reference(g, {"x": 1})
