"""CFD kernel throughput harness: cell-updates/sec with a JSON trail.

Unlike the figure benchmarks (which regenerate paper artifacts), this one
exists to give *future PRs a perf trajectory to beat*: it measures the raw
kernel rates of the real solver -- serial projection step, a single Jacobi
Poisson sweep, a single red-black SOR half-pass, and the domain-decomposed
step -- at two mesh sizes, prints them, and writes ``BENCH_cfd.json``
(schema: one record per measurement with ``{benchmark, mesh,
cells_per_sec, wall_s, host_cores}``) under ``_artifacts``.

Methodology:

* rates are best-of-``REPEATS`` over ``INNER`` back-to-back steps (min is
  the standard noise-robust estimator for throughput micro-benchmarks);
* the Poisson-sweep and SOR half-pass rates are isolated by differencing
  two step timings that differ only in ``poisson_iterations`` (an SOR
  sweep is two colour half-passes) -- no private solver hooks, so the
  harness keeps working across kernel rewrites (the point of a trajectory);
* every run *overwrites* the JSON; the git history of the artifact is the
  trajectory.
"""

import json
import os
import time

from repro.analysis import ComparisonTable
from repro.cfd import (
    BoundaryConditions,
    DecomposedSolver,
    FlowFields,
    ProjectionSolver,
    SolverConfig,
    WindInlet,
)
from repro.cfd.boundary import cups_screen_walls
from repro.cfd.mesh import default_mesh

#: Mesh sizes: the default test mesh and its 2x refinement (8x the cells).
MESH_RESOLUTIONS = (1, 2)
#: Timing protocol: best of REPEATS timings of INNER consecutive steps.
REPEATS = 5
INNER = 4
#: Sweep-isolation pair: the sweep rate comes from the timing difference
#: between steps with HIGH_SWEEPS and LOW_SWEEPS Poisson iterations.
LOW_SWEEPS = 1
HIGH_SWEEPS = 61

ARTIFACT = os.path.join(os.path.dirname(__file__), "_artifacts", "BENCH_cfd.json")


def _build(
    resolution: int, poisson: int, decomposed: bool = False,
    pressure_solver: str = "jacobi",
):
    mesh = default_mesh(resolution)
    bcs = BoundaryConditions(
        inlet=WindInlet(speed_mps=3.0), screens=cups_screen_walls(mesh)
    )
    cfg = SolverConfig(
        dt=0.02 / resolution, n_steps=8, poisson_iterations=poisson,
        pressure_solver=pressure_solver,
    )
    if decomposed:
        return mesh, DecomposedSolver(mesh, bcs, cfg, n_ranks=4)
    return mesh, ProjectionSolver(mesh, bcs, cfg)


def _time_steps(solver, fields) -> float:
    """Best-of-REPEATS wall time for INNER consecutive steps (s)."""
    solver.step(fields)  # warm-up: builds caches, touches all pages
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(INNER):
            solver.step(fields)
        best = min(best, time.perf_counter() - t0)
    return best


def _sweep_wall(resolution: int, pressure_solver: str) -> float:
    """Wall time of one pressure sweep, by differencing sweep depths."""
    walls = []
    for poisson in (LOW_SWEEPS, HIGH_SWEEPS):
        mesh, solver = _build(
            resolution, poisson=poisson, pressure_solver=pressure_solver
        )
        f = FlowFields(mesh).initialize_uniform(temperature=295.15)
        walls.append(_time_steps(solver, f))
    t_lo, t_hi = walls
    return max(t_hi - t_lo, 1e-9) / (INNER * (HIGH_SWEEPS - LOW_SWEEPS))


def _measure(resolution: int) -> list[dict]:
    """All four kernel rates at one mesh size."""
    records = []
    mesh_label = None

    # Serial step (at the default Poisson depth).
    mesh, solver = _build(resolution, poisson=60)
    mesh_label = f"{mesh.nx}x{mesh.ny}x{mesh.nz}"
    f = FlowFields(mesh).initialize_uniform(temperature=295.15)
    wall = _time_steps(solver, f)
    records.append({
        "benchmark": "serial_step",
        "mesh": mesh_label,
        "cells_per_sec": mesh.n_cells * INNER / wall,
        "wall_s": wall / INNER,
    })

    # Jacobi sweep and SOR half-pass, isolated by differencing two sweep
    # depths.
    sweep_wall = _sweep_wall(resolution, "jacobi")
    records.append({
        "benchmark": "poisson_sweep",
        "mesh": mesh_label,
        "cells_per_sec": mesh.n_cells / sweep_wall,
        "wall_s": sweep_wall,
    })
    half_pass_wall = _sweep_wall(resolution, "sor") / 2
    records.append({
        "benchmark": "sor_half_pass",
        "mesh": mesh_label,
        "cells_per_sec": mesh.n_cells / half_pass_wall,
        "wall_s": half_pass_wall,
    })

    # Decomposed step (4 slabs, run one after another).
    mesh, dsolver = _build(resolution, poisson=60, decomposed=True)
    f = FlowFields(mesh).initialize_uniform(temperature=295.15)
    wall = _time_steps(dsolver, f)
    records.append({
        "benchmark": "decomposed_step",
        "mesh": mesh_label,
        "cells_per_sec": mesh.n_cells * INNER / wall,
        "wall_s": wall / INNER,
    })
    for r in records:
        r["host_cores"] = os.cpu_count()
    return records


def test_cfd_kernel_throughput(benchmark):
    records = []

    def run_all():
        for resolution in MESH_RESOLUTIONS:
            records.extend(_measure(resolution))
        return records

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = ComparisonTable("CFD kernel throughput (cell-updates/sec)")
    for r in records:
        table.add(
            f"{r['benchmark']:16s} {r['mesh']}",
            r["cells_per_sec"],
            unit=f"cells/s  ({r['wall_s'] * 1e3:7.2f} ms)",
        )
    table.print()

    os.makedirs(os.path.dirname(ARTIFACT), exist_ok=True)
    with open(ARTIFACT, "w") as fh:
        json.dump(records, fh, indent=2)

    # Sanity floor: even the seed kernels exceed 1M cell-updates/sec on the
    # small mesh; anything below that signals a perf regression an order of
    # magnitude beyond run-to-run noise.
    by_key = {(r["benchmark"], r["mesh"]): r["cells_per_sec"] for r in records}
    small = f"{default_mesh().nx}x{default_mesh().ny}x{default_mesh().nz}"
    assert by_key[("serial_step", small)] > 1e6
    assert by_key[("poisson_sweep", small)] > 1e6
    assert by_key[("sor_half_pass", small)] > 1e6
    assert by_key[("decomposed_step", small)] > 5e5
