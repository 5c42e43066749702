"""repro.lint: AST-based determinism & simulation-safety analyzer.

The determinism guarantees the test suite asserts (byte-identical
same-seed traces, bit-identical chaos reports) rest on code conventions:
named RNG streams from :class:`repro.simkernel.rng.RngRegistry`, engine
virtual time instead of wall clocks, no hidden global state. This package
enforces those conventions statically:

* a rule catalog with stable ``REPROnnn`` codes (:mod:`repro.lint.rules`),
* per-line ``# repro-lint: disable=CODE`` suppressions
  (:mod:`repro.lint.context`),
* a checked-in baseline for grandfathered debt (:mod:`repro.lint.baseline`),
* a CLI: ``python -m repro.lint src tests benchmarks``
  (:mod:`repro.lint.cli`).

RNG stream provenance and shard-seam purity are checked where they
happen instead (:mod:`repro.simkernel.streams` and the tests named in
``docs/static-analysis.md``, which also holds the full rule catalog).
"""

from repro.lint.analyzer import (
    lint_file,
    lint_paths,
    lint_source,
    select_rules,
)
from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.cli import main
from repro.lint.context import FileContext, classify_scope
from repro.lint.rules import ALL_RULES, RULES_BY_CODE, Rule
from repro.lint.violations import Violation

__all__ = [
    "ALL_RULES",
    "Baseline",
    "BaselineEntry",
    "FileContext",
    "RULES_BY_CODE",
    "Rule",
    "Violation",
    "classify_scope",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "select_rules",
]
