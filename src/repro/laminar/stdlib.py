"""Standard Laminar node constructors.

Laminar programs are assembled from typed pure functions; this module
provides the common shapes so applications (and tests) don't hand-roll
them: arithmetic/map nodes, window statistics, gates, fan-in joins -- and
the paper's marquee capability, embedding a whole CFD simulation as a
single dataflow node ("it is possible to treat a large-scale Computational
Fluid Dynamics (CFD) application as a single node within an encompassing
Laminar program").
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.laminar.graph import DataflowGraph
from repro.laminar.operand import Operand
from repro.laminar.types import ARRAY_F64, BOOL, F64, LaminarType, record_type


def map_node(
    graph: DataflowGraph,
    name: str,
    fn: Callable[[Any], Any],
    source: Operand,
    out_type: LaminarType,
    host: Optional[str] = None,
) -> Operand:
    """``out = fn(in)``; returns the output operand."""
    out = graph.operand(f"{name}.out", out_type)
    graph.node(name, fn, inputs=[source], output=out, host=host)
    return out


def zip_node(
    graph: DataflowGraph,
    name: str,
    fn: Callable[..., Any],
    sources: list[Operand],
    out_type: LaminarType,
    host: Optional[str] = None,
) -> Operand:
    """``out = fn(*ins)`` -- the strict fan-in join."""
    if len(sources) < 2:
        raise ValueError("zip_node needs at least two sources")
    out = graph.operand(f"{name}.out", out_type)
    graph.node(name, fn, inputs=sources, output=out, host=host)
    return out


def window_stat_node(
    graph: DataflowGraph,
    name: str,
    source: Operand,
    stat: str = "mean",
    host: Optional[str] = None,
) -> Operand:
    """Reduce an ``ARRAY_F64`` window to one statistic (mean/std/min/max)."""
    reducers: dict[str, Callable[[np.ndarray], float]] = {
        "mean": lambda a: float(np.mean(a)),
        "std": lambda a: float(np.std(a, ddof=1)) if len(a) > 1 else 0.0,
        "min": lambda a: float(np.min(a)),
        "max": lambda a: float(np.max(a)),
    }
    if stat not in reducers:
        raise ValueError(f"unknown stat {stat!r}; have {sorted(reducers)}")
    if source.dtype is not ARRAY_F64:
        raise TypeError(f"window_stat_node needs an ARRAY_F64 source, got {source.dtype}")
    out = graph.operand(f"{name}.out", F64)
    graph.node(name, reducers[stat], inputs=[source], output=out, host=host)
    return out


def threshold_node(
    graph: DataflowGraph,
    name: str,
    source: Operand,
    threshold: float,
    host: Optional[str] = None,
) -> Operand:
    """``out = value > threshold`` as a BOOL operand."""
    out = graph.operand(f"{name}.out", BOOL)
    graph.node(
        name, lambda v: bool(v > threshold), inputs=[source], output=out, host=host
    )
    return out


#: Operand type carrying a CFD run request through a Laminar graph.
CFD_REQUEST = record_type(
    "cfd-request",
    {
        "wind_speed_mps": float,
        "wind_direction_deg": float,
        "exterior_temperature_k": float,
        "interior_temperature_k": float,
        "relative_humidity": float,
    },
)

#: Operand type carrying a CFD result summary back into the dataflow.
CFD_RESULT = record_type(
    "cfd-result",
    {
        "case_name": str,
        "interior_mean_speed_mps": float,
        "interior_max_speed_mps": float,
        "mean_interior_temperature_k": float,
        "steps_run": int,
    },
)


def cfd_node(
    graph: DataflowGraph,
    name: str,
    request: Operand,
    host: Optional[str] = None,
    compute_cost_s: float = 420.0,
    solver_config=None,
    mesh=None,
) -> Operand:
    """Embed the screen-house CFD as one Laminar node.

    The node consumes a :data:`CFD_REQUEST` record, runs the *real* solver
    (laptop scale), and emits a :data:`CFD_RESULT` summary. The runtime
    charges ``compute_cost_s`` of simulated time -- by default the paper's
    ~7 minutes of 64-core wall clock -- so an encompassing program sees
    realistic dataflow timing while the answer is genuinely computed.
    """
    from repro.cfd.case import TelemetrySnapshot, case_from_telemetry
    from repro.cfd.solver import SolverConfig

    cfg = solver_config or SolverConfig(dt=0.1, n_steps=60, poisson_iterations=20)

    def run_cfd(req: dict) -> dict:
        snapshot = TelemetrySnapshot(
            wind_speed_mps=req["wind_speed_mps"],
            wind_direction_deg=req["wind_direction_deg"],
            exterior_temperature_k=req["exterior_temperature_k"],
            interior_temperature_k=req["interior_temperature_k"],
            relative_humidity=req["relative_humidity"],
        )
        case = case_from_telemetry(snapshot, mesh=mesh, config=cfg)
        fields = case.build_solver().solve().fields
        m = case.mesh
        lo_x, hi_x = int(0.2 * m.nx), int(0.8 * m.nx)
        lo_y, hi_y = int(0.2 * m.ny), int(0.8 * m.ny)
        # Skip the ground cell layer (no-slip zeroes it) and stay below
        # the screen roof.
        interior = np.s_[lo_x:hi_x, lo_y:hi_y, 1 : max(2, m.nz // 3)]
        speed = fields.speed()[interior]
        return {
            "case_name": case.name,
            "interior_mean_speed_mps": float(speed.mean()),
            "interior_max_speed_mps": float(speed.max()),
            "mean_interior_temperature_k": float(
                fields.temperature[interior].mean()
            ),
            "steps_run": cfg.n_steps,
        }

    out = graph.operand(f"{name}.out", CFD_RESULT)
    graph.node(
        name, run_cfd, inputs=[request], output=out,
        host=host, compute_cost_s=compute_cost_s,
    )
    return out


def build_cfd_pipeline_graph(
    wind_threshold_mps: float = 1.0,
    sensor_host: Optional[str] = None,
    cfd_host: Optional[str] = None,
) -> DataflowGraph:
    """A compact end-to-end Laminar program: sensor window -> statistics ->
    gate -> CFD request assembly, with the CFD node downstream.

    This is the composition the paper sketches: conventional dataflow
    stages around an embedded large-scale simulation.
    """
    g = DataflowGraph("cfd-pipeline")
    window = g.operand("wind_window", ARRAY_F64)
    request = g.operand("request", CFD_REQUEST)

    mean = window_stat_node(g, "wind-mean", window, "mean", host=sensor_host)
    threshold_node(g, "windy", mean, wind_threshold_mps, host=sensor_host)
    cfd_node(g, "cups-cfd", request, host=cfd_host, compute_cost_s=420.0)
    g.validate()
    return g
