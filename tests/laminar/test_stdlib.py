"""Tests for the Laminar standard-node library, including CFD-as-a-node."""

import warnings

import numpy as np
import pytest

from repro.cspot import CSPOTNode, NetworkPath, Transport
from repro.laminar import ARRAY_F64, DataflowGraph, F64, I64, LaminarRuntime
from repro.laminar.stdlib import (
    CFD_REQUEST,
    CFD_RESULT,
    build_cfd_pipeline_graph,
    cfd_node,
    map_node,
    threshold_node,
    window_stat_node,
    zip_node,
)
from repro.simkernel import Engine

warnings.filterwarnings("ignore", category=RuntimeWarning)


class TestBasicNodes:
    def test_map_node(self):
        g = DataflowGraph("g")
        x = g.operand("x", I64)
        out = map_node(g, "double", lambda v: 2 * v, x, I64)
        values = g.run_epoch(0, {"x": 21})
        assert values[out.name] == 42

    def test_zip_node(self):
        g = DataflowGraph("g")
        a, b = g.operand("a", F64), g.operand("b", F64)
        out = zip_node(g, "add", lambda x, y: x + y, [a, b], F64)
        assert g.run_epoch(0, {"a": 1.5, "b": 2.5})[out.name] == 4.0

    def test_zip_needs_two_sources(self):
        g = DataflowGraph("g")
        a = g.operand("a", F64)
        with pytest.raises(ValueError):
            zip_node(g, "bad", lambda x: x, [a], F64)

    def test_window_stats(self):
        for stat, expected in [("mean", 2.0), ("min", 1.0), ("max", 3.0)]:
            g = DataflowGraph(f"g-{stat}")
            w = g.operand("w", ARRAY_F64)
            out = window_stat_node(g, "s", w, stat)
            values = g.run_epoch(0, {"w": np.array([1.0, 2.0, 3.0])})
            assert values[out.name] == pytest.approx(expected)

    def test_window_stat_validation(self):
        g = DataflowGraph("g")
        w = g.operand("w", ARRAY_F64)
        with pytest.raises(ValueError, match="unknown stat"):
            window_stat_node(g, "s", w, "median")
        x = g.operand("x", F64)
        with pytest.raises(TypeError):
            window_stat_node(g, "s2", x)

    def test_threshold_node(self):
        g = DataflowGraph("g")
        x = g.operand("x", F64)
        out = threshold_node(g, "gate", x, 3.0)
        assert g.run_epoch(0, {"x": 5.0})[out.name] is True
        assert g.run_epoch(1, {"x": 2.0})[out.name] is False

    def test_composition(self):
        # window -> mean -> threshold, chained through stdlib constructors.
        g = DataflowGraph("g")
        w = g.operand("w", ARRAY_F64)
        mean = window_stat_node(g, "m", w, "mean")
        gate = threshold_node(g, "g8", mean, 2.0)
        values = g.run_epoch(0, {"w": np.array([3.0, 3.0, 3.0])})
        assert values[gate.name] is True


class TestCfdAsNode:
    def _request(self, wind=4.0):
        return {
            "wind_speed_mps": wind,
            "wind_direction_deg": 0.0,
            "exterior_temperature_k": 295.0,
            "interior_temperature_k": 297.0,
            "relative_humidity": 0.5,
        }

    def test_request_and_result_types(self):
        CFD_REQUEST.check(self._request())
        assert not CFD_REQUEST.validate({"wind_speed_mps": 3.0})

    def test_cfd_node_runs_real_solver(self):
        from repro.cfd.mesh import StructuredMesh
        from repro.cfd.solver import SolverConfig

        g = DataflowGraph("g")
        req = g.operand("req", CFD_REQUEST)
        out = cfd_node(
            g, "cfd", req,
            solver_config=SolverConfig(dt=0.1, n_steps=30, poisson_iterations=13),
            mesh=StructuredMesh(14, 14, 6, lx=140.0, ly=140.0, lz=30.0),
        )
        values = g.run_epoch(0, {"req": self._request()})
        result = values[out.name]
        CFD_RESULT.check(result)
        assert result["steps_run"] == 30
        assert 0.0 < result["interior_mean_speed_mps"] < 10.0
        assert result["interior_max_speed_mps"] >= result["interior_mean_speed_mps"]

    def test_cfd_node_charges_simulated_time_on_runtime(self):
        from repro.cfd.mesh import StructuredMesh
        from repro.cfd.solver import SolverConfig

        engine = Engine(seed=0)
        host = CSPOTNode(engine, "nd")
        g = DataflowGraph("g")
        req = g.operand("req", CFD_REQUEST)
        out = cfd_node(
            g, "cfd", req, compute_cost_s=420.0,
            solver_config=SolverConfig(dt=0.1, n_steps=20, poisson_iterations=10),
            mesh=StructuredMesh(12, 12, 6, lx=140.0, ly=140.0, lz=30.0),
        )
        rt = LaminarRuntime(engine, g, hosts={"nd": host})
        rt.submit(0, {"req": self._request()})
        engine.run(until=rt.epoch_done(0))
        # The paper-scale 64-core wall clock appears as dataflow latency.
        assert engine.now >= 420.0
        assert rt.value(out.name, 0)["interior_mean_speed_mps"] > 0

    def test_stronger_wind_stronger_interior_flow_through_dataflow(self):
        from repro.cfd.mesh import StructuredMesh
        from repro.cfd.solver import SolverConfig

        cfg = SolverConfig(dt=0.1, n_steps=40, poisson_iterations=13)
        mesh = StructuredMesh(14, 14, 6, lx=140.0, ly=140.0, lz=30.0)
        g = DataflowGraph("g")
        req = g.operand("req", CFD_REQUEST)
        out = cfd_node(g, "cfd", req, solver_config=cfg, mesh=mesh)
        weak = g.run_epoch(0, {"req": self._request(wind=1.5)})[out.name]
        strong = g.run_epoch(1, {"req": self._request(wind=6.0)})[out.name]
        assert strong["interior_mean_speed_mps"] > weak["interior_mean_speed_mps"]


class TestPipelineGraph:
    def test_builds_and_validates(self):
        g = build_cfd_pipeline_graph()
        names = {n.name for n in g.nodes}
        assert {"wind-mean", "windy", "cups-cfd"} <= names
        assert {op.name for op in g.source_operands()} == {"wind_window", "request"}

    def test_distributed_deployment(self):
        from repro.cfd.solver import SolverConfig
        from repro.cfd.mesh import StructuredMesh

        engine = Engine(seed=1)
        ucsb, nd = CSPOTNode(engine, "ucsb"), CSPOTNode(engine, "nd")
        transport = Transport(engine)
        transport.connect("ucsb", "nd", NetworkPath("p", one_way_ms=22.75))
        g = DataflowGraph("pipe")
        window = g.operand("wind_window", ARRAY_F64)
        request = g.operand("request", CFD_REQUEST)
        mean = window_stat_node(g, "wind-mean", window, "mean", host="ucsb")
        threshold_node(g, "windy", mean, 1.0, host="ucsb")
        cfd_node(
            g, "cups-cfd", request, host="nd", compute_cost_s=60.0,
            solver_config=SolverConfig(dt=0.1, n_steps=15, poisson_iterations=10),
            mesh=StructuredMesh(12, 12, 6, lx=140.0, ly=140.0, lz=30.0),
        )
        rt = LaminarRuntime(
            engine, g, hosts={"ucsb": ucsb, "nd": nd}, transport=transport
        )
        rt.submit(0, {
            "wind_window": np.full(6, 4.0),
            "request": {
                "wind_speed_mps": 4.0, "wind_direction_deg": 0.0,
                "exterior_temperature_k": 295.0,
                "interior_temperature_k": 297.0, "relative_humidity": 0.5,
            },
        })
        engine.run(until=rt.epoch_done(0))
        assert rt.value("windy.out", 0)
        assert rt.value("cups-cfd.out", 0)["interior_mean_speed_mps"] > 0
