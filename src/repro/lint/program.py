"""Whole-program passes: the ``REPRO5xx`` rule family and its driver.

``python -m repro.lint --program`` builds a :class:`~repro.lint.graph
.ProgramGraph` over every scanned file and runs the cross-module checks
that per-file rules cannot express:

* **Stream provenance** (REPRO501-504, :mod:`repro.lint.provenance`):
  every RNG draw site is resolved to a name template and attributed to a
  declared namespace.
* **Shard-boundary purity** (REPRO511, this module): every class
  reachable from the pickling seam roots (``PICKLE_SEAM_ROOTS`` in
  :mod:`repro.parallel.worker`), through field types and base classes,
  must hold pure data -- no engines, tracers, live generators, open
  handles or callables. Ambient state shipped across the
  coordinator->worker pipe silently stops worker results being a
  function of ``(task, seed)``.

Program rules are deliberately a separate registry from the per-file
``ALL_RULES``: they have no single-file fixture semantics (their
positive/negative cases are mini-trees under
``tests/lint/fixtures/program/``), and the per-file CLI paths keep
working without building a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.lint.analyzer import iter_python_files, relative_posix
from repro.lint.graph import (
    ModuleSummary,
    ProgramGraph,
    SummaryCache,
    build_graph,
)
from repro.lint.provenance import (
    ResolvedSite,
    check_collisions,
    check_dead_namespaces,
    check_foreign_draws,
    check_unregistered,
    resolve_sites,
)
from repro.lint.violations import Violation

#: Types that are *ambient state* on a pickled shard boundary: live
#: machinery whose identity/state is process-local, as resolved dotted
#: names. A task field reaching any of these (transitively, through
#: dataclass fields) trips REPRO511.
AMBIENT_TYPES = frozenset(
    {
        "repro.simkernel.engine.Engine",
        "repro.simkernel.Engine",
        "repro.obs.trace.Tracer",
        "repro.obs.Tracer",
        "repro.obs.metrics.MetricsRegistry",
        "repro.obs.MetricsRegistry",
        "repro.simkernel.rng.RngRegistry",
        "repro.simkernel.RngRegistry",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.BitGenerator",
        "multiprocessing.connection.Connection",
        "threading.Thread",
        "threading.Lock",
        "threading.RLock",
        "threading.Event",
        "threading.Condition",
        "socket.socket",
        "typing.IO",
        "typing.TextIO",
        "typing.BinaryIO",
        "io.IOBase",
        "io.TextIOBase",
        "io.BufferedIOBase",
        "io.TextIOWrapper",
        "typing.Callable",
        "collections.abc.Callable",
    }
)

#: Constructors whose *result* is ambient even without an annotation.
AMBIENT_CONSTRUCTORS = frozenset(
    {
        "open",
        "io.open",
        "socket.socket",
        "threading.Thread",
        "threading.Lock",
        "threading.RLock",
    }
)


@dataclass(frozen=True)
class ProgramRule:
    """One whole-program invariant, mirroring the per-file ``Rule`` shape."""

    code: str
    name: str
    rationale: str
    check: Callable[[ProgramGraph, list[ResolvedSite]], Iterator[Violation]]


def _purity_check(
    graph: ProgramGraph, _sites: list[ResolvedSite]
) -> Iterator[Violation]:
    """REPRO511: walk seam-root fields; reject ambient state."""
    for home, root in graph.all_seam_roots():
        located = graph.resolve_class(root, home)
        if located is None:
            yield Violation(
                path=home.path,
                line=1,
                col=0,
                code="REPRO511",
                message=(
                    f"pickle seam root `{root}` does not resolve to a "
                    "known class; fix the PICKLE_SEAM_ROOTS entry"
                ),
                line_text=home.line_text(1),
            )
            continue
        root_mod, root_name, root_cls = located
        visited: set[tuple[str, str]] = set()
        stack = [(root_mod, root_name, root_cls, root_name)]
        while stack:
            mod, cls_name, cls, chain = stack.pop()
            if (mod.module, cls_name) in visited:
                continue
            visited.add((mod.module, cls_name))
            for field_name in sorted(cls.fields):
                field = cls.fields[field_name]
                field_chain = f"{chain}.{field_name}"
                ambient = sorted(
                    set(field.ann_names) & AMBIENT_TYPES
                )
                if field.value_call in AMBIENT_CONSTRUCTORS:
                    ambient.append(field.value_call)
                if ambient:
                    yield Violation(
                        path=mod.path,
                        line=field.line,
                        col=0,
                        code="REPRO511",
                        message=(
                            f"`{field_chain}` holds ambient state "
                            f"({', '.join(ambient)}) reachable from the "
                            f"pickling seam root `{root}`; everything "
                            "crossing the worker boundary must be pure "
                            "data or worker results stop being a function "
                            "of (task, seed)"
                        ),
                        line_text=mod.line_text(field.line),
                    )
                    continue
                for ann in field.ann_names:
                    nested = graph.resolve_class(ann, mod)
                    if nested is not None:
                        n_mod, n_name, n_cls = nested
                        stack.append((n_mod, n_name, n_cls, field_chain))
            # Inherited fields cross the seam too, under the subclass's name.
            for base in cls.bases:
                inherited = graph.resolve_class(base, mod)
                if inherited is not None:
                    b_mod, b_name, b_cls = inherited
                    stack.append((b_mod, b_name, b_cls, chain))


def _provenance_rule(
    check: Callable[..., Iterator[Violation]], needs_graph: bool
) -> Callable[[ProgramGraph, list[ResolvedSite]], Iterator[Violation]]:
    if needs_graph:
        return lambda graph, sites: check(graph, sites)
    return lambda graph, sites: check(sites)


PROGRAM_RULES: tuple[ProgramRule, ...] = (
    ProgramRule(
        code="REPRO501",
        name="stream-namespace-collision",
        rationale=(
            "Two declared stream namespaces whose patterns overlap give "
            "two subsystems the same (master seed, name) keyed generator: "
            "correlated randomness by construction. Patterns must be "
            "mutually exclusive."
        ),
        check=lambda graph, sites: check_collisions(graph),
    ),
    ProgramRule(
        code="REPRO502",
        name="foreign-stream-draw",
        rationale=(
            "Library code drawing a stream owned by another package "
            "couples the two subsystems' randomness: re-ordering either "
            "side's draws perturbs the other. Only the owning package "
            "(or a helper it exports) may draw its streams."
        ),
        check=lambda graph, sites: check_foreign_draws(sites),
    ),
    ProgramRule(
        code="REPRO503",
        name="dead-stream-namespace",
        rationale=(
            "A declared namespace no call site draws is registry rot: it "
            "documents a contract nothing honours and masks typos (the "
            "real call site silently falls into REPRO504 territory)."
        ),
        check=lambda graph, sites: check_dead_namespaces(graph, sites),
    ),
    ProgramRule(
        code="REPRO504",
        name="unregistered-stream",
        rationale=(
            "A library draw site matching no declared namespace is an "
            "ad-hoc stream name: nothing guards it against collisions and "
            "the registry page stops being the single source of truth. "
            "Declare the namespace and build the name via its constant or "
            "helper."
        ),
        check=lambda graph, sites: check_unregistered(sites),
    ),
    ProgramRule(
        code="REPRO511",
        name="shard-ambient-state",
        rationale=(
            "Classes pickled across the coordinator->worker seam "
            "(PICKLE_SEAM_ROOTS) must be pure data. An engine, tracer, "
            "generator, open handle or callable inside a task ships "
            "process-local state into the worker, so results silently "
            "stop being a function of (task, seed) -- the exact invariant "
            "the sharded executor exists to keep."
        ),
        check=_purity_check,
    ),
)

PROGRAM_RULES_BY_CODE: dict[str, ProgramRule] = {
    rule.code: rule for rule in PROGRAM_RULES
}
if len(PROGRAM_RULES_BY_CODE) != len(PROGRAM_RULES):  # pragma: no cover
    raise RuntimeError("duplicate rule codes in PROGRAM_RULES")


def read_program_files(
    paths: Sequence[Path], root: Path | None = None
) -> list[tuple[str, bytes]]:
    """``(repo-relative posix path, bytes)`` for every scanned file."""
    return [
        (relative_posix(path, root), path.read_bytes())
        for path in iter_python_files(paths)
    ]


def select_program_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] = (),
) -> tuple[ProgramRule, ...]:
    """Subset of program rules matching ``--select`` / ``--ignore``."""
    selected = set(c.upper() for c in select) if select is not None else None
    ignored = {c.upper() for c in ignore}
    return tuple(
        rule
        for rule in PROGRAM_RULES
        if (selected is None or rule.code in selected)
        and rule.code not in ignored
    )


def analyze_graph(
    graph: ProgramGraph,
    rules: Sequence[ProgramRule] | None = None,
) -> list[Violation]:
    """Run the program rules over a built graph (suppressions applied)."""
    active = tuple(rules) if rules is not None else PROGRAM_RULES
    by_path: dict[str, ModuleSummary] = {
        s.path: s for s in graph.modules.values()
    }
    sites = resolve_sites(graph)
    found: list[Violation] = []
    for rule in active:
        for violation in rule.check(graph, sites):
            mod = by_path.get(violation.path)
            if mod is not None and mod.suppressed(
                violation.line, violation.code
            ):
                continue
            found.append(violation)
    return sorted(set(found))


def analyze_program(
    paths: Sequence[Path],
    root: Path | None = None,
    cache_path: Path | None = None,
    rules: Sequence[ProgramRule] | None = None,
) -> tuple[list[Violation], ProgramGraph]:
    """Build the graph over ``paths`` and run every program rule."""
    files = read_program_files(paths, root)
    cache = SummaryCache(cache_path) if cache_path is not None else None
    graph = build_graph(files, cache)
    if cache is not None:
        cache.save(rel for rel, _ in files)
    return analyze_graph(graph, rules), graph
