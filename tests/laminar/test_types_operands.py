"""Tests for the Laminar type system and single-assignment operands."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cspot import CSPOTNode
from repro.laminar import (
    ARRAY_F64,
    BOOL,
    F64,
    I64,
    STRING,
    DataflowGraph,
    LaminarRuntime,
    TypeError_,
)
from repro.simkernel import Engine


class TestScalarTypes:
    def test_i64_roundtrip(self):
        assert I64.roundtrip(42) == 42
        assert I64.roundtrip(-1) == -1

    def test_f64_roundtrip(self):
        assert F64.roundtrip(3.25) == 3.25

    def test_bool_roundtrip(self):
        assert BOOL.roundtrip(True) is True or BOOL.roundtrip(True) == True  # noqa: E712

    def test_string_roundtrip(self):
        assert STRING.roundtrip("héllo") == "héllo"

    def test_i64_rejects_bool_and_float(self):
        assert not I64.validate(True)
        assert not I64.validate(1.5)
        assert I64.validate(np.int64(3))

    def test_check_raises_with_context(self):
        with pytest.raises(TypeError_, match="operand 'x'"):
            I64.check("nope", context="operand 'x'")

    def test_array_roundtrip(self):
        arr = np.array([1.0, 2.5, -3.0])
        out = ARRAY_F64.roundtrip(arr)
        assert np.array_equal(out, arr)

    def test_array_accepts_lists(self):
        assert ARRAY_F64.validate([1, 2, 3])
        assert not ARRAY_F64.validate([[1, 2]])
        assert not ARRAY_F64.validate("abc")


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-(2**62), max_value=2**62))
def test_i64_roundtrip_property(v):
    assert I64.roundtrip(v) == v


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=0,
        max_size=50,
    )
)
def test_array_roundtrip_property(values):
    arr = np.asarray(values, dtype=np.float64)
    assert np.array_equal(ARRAY_F64.roundtrip(arr), arr)


def one_source_runtime():
    """A runtime on one host for a graph whose only source is ``x: i64``."""
    engine = Engine(seed=0)
    g = DataflowGraph("one")
    x = g.operand("x", I64)
    y = g.operand("y", I64)
    g.node("copy", lambda v: v, inputs=[x], output=y)
    return engine, LaminarRuntime(engine, g, hosts={"ucsb": CSPOTNode(engine, "ucsb")})


class TestOperand:
    """An operand binds once per epoch, in the runtime that runs its graph."""

    def test_bind_and_get(self):
        engine, rt = one_source_runtime()
        rt.submit(0, {"x": 5})
        engine.run(until=rt.epoch_done(0))
        assert rt.value("x", 0) == 5
        with pytest.raises(KeyError):
            rt.value("x", 1)

    def test_single_assignment_per_epoch(self):
        engine, rt = one_source_runtime()
        rt.submit(0, {"x": 5})
        with pytest.raises(TypeError_, match="single assignment"):
            rt.submit(0, {"x": 6})
        rt.submit(1, {"x": 6})  # new epoch is fine
        engine.run(until=rt.epoch_done(1))
        engine.run(until=rt.epoch_done(0))
        assert [rt.value("x", e) for e in (0, 1)] == [5, 6]

    def test_type_checked_binding(self):
        _, rt = one_source_runtime()
        with pytest.raises(TypeError_):
            rt.submit(0, {"x": "not an int"})

    def test_get_unbound(self):
        _, rt = one_source_runtime()
        with pytest.raises(KeyError):
            rt.value("x", 0)

    def test_negative_epoch(self):
        _, rt = one_source_runtime()
        with pytest.raises(ValueError):
            rt.submit(-1, {"x": 5})
