"""CFD kernel throughput harness: cell-updates/sec with a JSON trail.

Unlike the figure benchmarks (which regenerate paper artifacts), this one
exists to give *future PRs a perf trajectory to beat*: it measures the raw
kernel rates of the real solver -- the projection step at the fabric
twin's pressure settings (5 red-black SOR sweeps) and a single SOR colour
half-pass -- at two mesh sizes, prints them, and writes ``BENCH_cfd.json``
(schema: one record per measurement with ``{benchmark, mesh,
cells_per_sec, wall_s, host_cores}``) under ``_artifacts``.

Methodology:

* rates are best-of-``REPEATS`` over ``INNER`` back-to-back steps (min is
  the standard noise-robust estimator for throughput micro-benchmarks);
* the half-pass rate is isolated by differencing two step timings that
  differ only in ``poisson_iterations`` (an SOR sweep is two colour
  half-passes) -- no private solver hooks, so the harness keeps working
  across kernel rewrites (the point of a trajectory);
* every run *overwrites* the JSON; the git history of the artifact is the
  trajectory.
"""

import json
import os
import time

import pytest

from repro.analysis import ComparisonTable
from repro.cfd import (
    BoundaryConditions,
    FlowFields,
    ProjectionSolver,
    SolverConfig,
    WindInlet,
)
from repro.cfd.boundary import cups_screen_walls
from repro.cfd.mesh import default_mesh
from repro.core.config import TWIN_SOLVER

#: Mesh sizes: the default test mesh and its 2x refinement (8x the cells).
MESH_RESOLUTIONS = (1, 2)
#: Timing protocol: best of REPEATS timings of INNER consecutive steps.
REPEATS = 5
INNER = 4
#: SOR sweeps per step of the ``serial_step`` measurement: the twin's.
TWIN_SWEEPS = TWIN_SOLVER.poisson_iterations
#: Sweep-isolation pair: the half-pass rate comes from the timing
#: difference between steps with HIGH_SWEEPS and LOW_SWEEPS SOR sweeps.
LOW_SWEEPS = 1
HIGH_SWEEPS = 61
#: The keys of one record.
RECORD_KEYS = {"benchmark", "mesh", "cells_per_sec", "wall_s", "host_cores"}

ARTIFACT = os.path.join(os.path.dirname(__file__), "_artifacts", "BENCH_cfd.json")


def _build(resolution: int, poisson: int):
    mesh = default_mesh(resolution)
    bcs = BoundaryConditions(
        inlet=WindInlet(speed_mps=3.0), screens=cups_screen_walls(mesh)
    )
    cfg = SolverConfig(
        dt=0.02 / resolution, n_steps=8, poisson_iterations=poisson,
    )
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


def _record(benchmark: str, mesh, wall_s: float) -> dict:
    """One measurement: ``wall_s`` is the time of one pass over the mesh."""
    return {
        "benchmark": benchmark,
        "mesh": f"{mesh.nx}x{mesh.ny}x{mesh.nz}",
        "cells_per_sec": mesh.n_cells / wall_s,
        "wall_s": wall_s,
        "host_cores": os.cpu_count(),
    }


def _step_record(resolution: int) -> dict:
    """The projection step at the twin's pressure settings."""
    mesh, solver = _build(resolution, poisson=TWIN_SWEEPS)
    f = FlowFields(mesh).initialize_uniform(temperature=295.15)
    return _record("serial_step", mesh, _time_steps(solver, f) / INNER)


def _half_pass_record(resolution: int) -> dict:
    """One SOR colour half-pass, by differencing sweep depths."""
    walls = []
    for poisson in (LOW_SWEEPS, HIGH_SWEEPS):
        mesh, solver = _build(resolution, poisson=poisson)
        f = FlowFields(mesh).initialize_uniform(temperature=295.15)
        walls.append(_time_steps(solver, f))
    t_lo, t_hi = walls
    half_passes = INNER * 2 * (HIGH_SWEEPS - LOW_SWEEPS)
    return _record("sor_half_pass", mesh, max(t_hi - t_lo, 1e-9) / half_passes)


def test_cfd_kernel_throughput(benchmark):
    records = []

    def run_all():
        for resolution in MESH_RESOLUTIONS:
            records.append(_step_record(resolution))
            records.append(_half_pass_record(resolution))
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
    assert by_key[("sor_half_pass", small)] > 1e6


@pytest.mark.smoke
def test_cfd_kernel_record_schema_smoke():
    """Smoke lane: one step timing on the small mesh yields a well-formed
    record. No timing floor, no artifact write."""
    record = _step_record(1)
    assert set(record) == RECORD_KEYS
    mesh = default_mesh()
    assert record["mesh"] == f"{mesh.nx}x{mesh.ny}x{mesh.nz}"
    assert record["cells_per_sec"] > 0 and record["wall_s"] > 0
    assert record["host_cores"] == os.cpu_count()
