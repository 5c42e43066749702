"""Screen-house CFD: the OpenFOAM substitute.

The paper's CFD model predicts "airflow and heat transfer inside the CUPS
(a 100,000 cubic meter screen house) ... based on sensor measurements at the
boundaries". This package provides a *real* solver plus a calibrated
performance model:

* :mod:`repro.cfd.mesh` / :mod:`repro.cfd.fields` -- structured 3-D grid and
  field containers.
* :mod:`repro.cfd.boundary` -- wind inlet (log-law profile), outlet, ground,
  and the protective screen as a Darcy-Forchheimer porous momentum sink;
  screen *breaches* are local removals of that resistance.
* :mod:`repro.cfd.solver` -- incompressible Boussinesq projection method
  (Chorin splitting: advect/diffuse, pressure Poisson by a fixed count of
  red-black SOR sweeps, correct), vectorized NumPy throughout; conserves
  mass to solver tolerance (property-tested). It is the one solver: the
  fabric twin, the Laminar CFD node and the examples all run it.
* :mod:`repro.cfd.perfmodel` -- runtime model calibrated to Figure 7
  (420.39 s +/- 36.29 s at 64 cores, single node) and the section 4.4
  multi-node observation (solver fastest on 2 nodes, total app slower).
* :mod:`repro.cfd.case` -- OpenFOAM-style case generation from telemetry
  (the "preprocessing pipeline to generate input files and meshing
  coordinates").
* :mod:`repro.cfd.postprocess` -- rasterized slice output (the VTK/ParaView
  substitute behind Figure 3) and predicted-vs-measured residuals for the
  digital-twin breach detector.
"""

from repro.cfd.mesh import StructuredMesh
from repro.cfd.fields import FlowFields, PaddedScratch
from repro.cfd.boundary import BoundaryConditions, ScreenPanel, WindInlet
from repro.cfd.solver import (
    PressureWorkspace,
    ProjectionSolver,
    SolverConfig,
    SolverResult,
)
from repro.cfd.perfmodel import (
    CfdPerformanceModel,
    FIG7_ANCHOR_MEAN_S,
    FIG7_ANCHOR_STD_S,
)
from repro.cfd.case import CfdCase, case_from_telemetry
from repro.cfd.postprocess import (
    probe_at_points,
    render_ascii,
    residuals_against_measurements,
    slice_raster,
    write_vtk_ascii,
)

__all__ = [
    "StructuredMesh",
    "FlowFields",
    "PaddedScratch",
    "BoundaryConditions",
    "WindInlet",
    "ScreenPanel",
    "PressureWorkspace",
    "ProjectionSolver",
    "SolverConfig",
    "SolverResult",
    "CfdPerformanceModel",
    "FIG7_ANCHOR_MEAN_S",
    "FIG7_ANCHOR_STD_S",
    "CfdCase",
    "case_from_telemetry",
    "slice_raster",
    "render_ascii",
    "probe_at_points",
    "residuals_against_measurements",
    "write_vtk_ascii",
]
