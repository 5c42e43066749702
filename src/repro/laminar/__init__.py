"""Laminar: a strongly-typed, strict, applicative dataflow system on CSPOT.

Reimplementation of the Laminar dataflow environment (Ekaireb et al., IEEE
CLOUD'24) that xGFabric uses to program across the edge-cloud-HPC continuum.
Key properties carried over from the paper's description (section 3.5):

* **Strongly typed, strict, applicative** -- every node is a pure function
  with typed ports; a node fires exactly when all of its inputs are bound.
* **Single-assignment operands** -- each operand is bound at most once per
  execution epoch, which is what makes CSPOT logs (append-only, immutable
  entries) a sound substrate for functional dataflow semantics.
  :meth:`LaminarRuntime.submit` checks an epoch's sources before its first
  append and rejects a second submit of the same epoch.
* **CSPOT as the runtime** -- operand bindings are log appends; node firing
  is a CSPOT handler. The runtime maintains per-epoch ready counters on the
  programmer's behalf ("implementing ... many of the optimizations needed
  to avoid log scans during synchronization"). :class:`LaminarRuntime` is
  the one executor; the tests hold it to a synchronous reference.
* **Network transparency** -- nodes may be placed on different CSPOT hosts;
  cross-host operand bindings ride the CSPOT transport, inheriting its
  delay tolerance.

The package also contains the application program the paper runs on
Laminar: the telemetry change detector (three statistical tests + voting)
that decides when a new CFD simulation is warranted
(:mod:`repro.laminar.change_detect`).
"""

from repro.laminar.types import (
    ARRAY_F64,
    BOOL,
    F64,
    I64,
    STRING,
    LaminarType,
    TypeError_,
)
from repro.laminar.operand import Operand
from repro.laminar.node import LaminarNode
from repro.laminar.graph import DataflowGraph, GraphError
from repro.laminar.runtime import LaminarRuntime
from repro.laminar.stats_tests import (
    StatTestResult,
    ks_test,
    mann_whitney_test,
    welch_t_test,
)
from repro.laminar.change_detect import (
    ChangeDetector,
    ChangeVerdict,
    build_change_detection_graph,
)

__all__ = [
    "LaminarType",
    "TypeError_",
    "I64",
    "F64",
    "BOOL",
    "STRING",
    "ARRAY_F64",
    "Operand",
    "LaminarNode",
    "DataflowGraph",
    "GraphError",
    "LaminarRuntime",
    "StatTestResult",
    "welch_t_test",
    "mann_whitney_test",
    "ks_test",
    "ChangeDetector",
    "ChangeVerdict",
    "build_change_detection_graph",
]
