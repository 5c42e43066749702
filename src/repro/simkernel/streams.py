"""The RNG stream namespace registry: every named stream, declared once.

Stream *names* are the reproduction's randomness contract: a subsystem's
draws are a function of ``(master seed, stream name)`` alone, so two
subsystems accidentally sharing a name draw *correlated* randomness, and
a stream drawn outside its owning package silently couples modules the
architecture says are independent. This module is the single source of
truth for that contract:

* Every namespace is declared as a :class:`StreamNamespace` in
  :data:`STREAM_NAMESPACES`, with its owning package and a one-line
  description. ``<placeholder>`` segments are wildcards (one dot-free
  run of characters each).
* Call sites build names only through the constants and helper
  functions below -- never ad-hoc string literals/f-strings.
* The contract is checked where it runs. Importing this module raises if
  two patterns overlap; :meth:`repro.simkernel.rng.RngRegistry.get`
  rejects a name no pattern matches (:func:`namespace_of`); and
  ``tests/simkernel/test_streams.py`` runs the fabric, scale and
  sharded-fabric workloads to check that every namespace is drawn, and
  only from its owner.

Adding a stream: declare the namespace here, add a constant or helper,
and draw the stream from its owning package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class StreamNamespace:
    """One declared RNG stream namespace.

    ``pattern`` is the dotted stream name; ``<placeholder>`` marks a
    variable segment (matches one dot-free run). ``owner`` is the
    package whose *library code* may draw the stream; tests, benchmarks
    and examples may draw any declared stream, but never an undeclared
    name.
    """

    pattern: str
    owner: str
    description: str


# -- cspot -------------------------------------------------------------------

#: Transport-level latency jitter draws.
CSPOT_TRANSPORT = "cspot.transport"


def cspot_fault_stream(src: str, dst: str) -> str:
    """Fault-injector stream for the directed CSPOT path ``src -> dst``."""
    return f"cspot.faults.{src}-{dst}"


# -- chaos -------------------------------------------------------------------

#: Campaign-level fault scheduling draws.
CHAOS_CAMPAIGN = "chaos"

# -- hpc ---------------------------------------------------------------------


def hpc_background_load_stream(site_name: str) -> str:
    """Background queue-load stream for one HPC site.

    Keyed by site so co-scheduled load generators on one engine stay
    independent: adding a second site's generator must never perturb the
    first site's arrival schedule.
    """
    return f"hpc.background-load.{site_name}"


# -- cfd ---------------------------------------------------------------------

#: Sampled CFD runtime draws from the calibrated performance model.
CFD_RUNTIME = "cfd.runtime"

# -- radio populations -------------------------------------------------------

#: Stream prefix for population-wide draws (the per-cell UE counts).
POPULATION_PREFIX = "population"
#: Stream prefix for per-cell draws (realization and shard sampling).
SHARD_PREFIX = "shard"


def population_stream(prefix: str, kind: str) -> str:
    """Population-level stream ``<prefix>.<kind>`` (e.g. ``population.cells``)."""
    if not kind:
        raise ValueError("empty population stream kind")
    return f"{prefix}.{kind}"


def cell_stream(prefix: str, cell_index: int, kind: str) -> str:
    """Per-cell stream ``<prefix>.cell<ccc>.<kind>``, keyed by cell index."""
    if cell_index < 0:
        raise ValueError(f"negative cell index: {cell_index}")
    if not kind:
        raise ValueError("empty cell stream kind")
    return f"{prefix}.cell{cell_index:03d}.{kind}"


def shard_stream(cell_index: int, purpose: str) -> str:
    """Canonical per-shard RNG stream name: ``shard.cell<ccc>.<purpose>``.

    Keyed by the *cell* index -- the stable shard id -- never by the
    worker that happens to run it, so shard count never changes any
    stream's draws.
    """
    if not purpose:
        raise ValueError("empty stream purpose")
    return cell_stream(SHARD_PREFIX, cell_index, purpose)


def sensor_stream(kind: str, cell: Optional[int] = None) -> str:
    """A farm's sensor stream of one ``kind`` (weather, instruments, robot).

    The one farm of a single-engine fabric draws ``sensors.<kind>``; farm
    ``cell`` of a sharded fabric draws its own ``shard.cell<ccc>.<kind>``,
    so farms sharing a shard engine stay independent.
    """
    if cell is None:
        return f"sensors.{kind}"
    return shard_stream(cell, kind)


#: The declared namespace table, in registry order. Patterns must be
#: pairwise disjoint (checked below, at import).
STREAM_NAMESPACES: tuple[StreamNamespace, ...] = (
    StreamNamespace(
        pattern="chaos",
        owner="repro.chaos",
        description="Chaos campaign fault scheduling draws.",
    ),
    StreamNamespace(
        pattern="cspot.transport",
        owner="repro.cspot",
        description="CSPOT transport latency jitter.",
    ),
    StreamNamespace(
        pattern="cspot.faults.<src>-<dst>",
        owner="repro.cspot",
        description="Per-path CSPOT fault injector (drop/ack-loss draws).",
    ),
    StreamNamespace(
        pattern="sensors.robot",
        owner="repro.sensors",
        description="Farm-ng robot motion/measurement noise.",
    ),
    StreamNamespace(
        pattern="sensors.weather",
        owner="repro.sensors",
        description="Synthetic weather field (diurnal wind + gusts).",
    ),
    StreamNamespace(
        pattern="sensors.instruments",
        owner="repro.sensors",
        description="Weather-station instrument noise, shared by all stations.",
    ),
    StreamNamespace(
        pattern="hpc.background-load.<site>",
        owner="repro.hpc",
        description="Per-site synthetic batch-queue background load.",
    ),
    StreamNamespace(
        pattern="cfd.runtime",
        owner="repro.cfd",
        description="Sampled CFD runtimes from the calibrated perf model.",
    ),
    StreamNamespace(
        pattern="population.cells",
        owner="repro.radio",
        description="UE-count draws across a declarative population's cells.",
    ),
    StreamNamespace(
        pattern="shard.cell<cell>.channel",
        owner="repro.radio",
        description="Per-cell channel quality (mean CQI) realization.",
    ),
    StreamNamespace(
        pattern="shard.cell<cell>.gain",
        owner="repro.radio",
        description="Per-cell link-gain realization.",
    ),
    StreamNamespace(
        pattern="shard.cell<cell>.radio",
        owner="repro.parallel",
        description="Per-cell radio sampling on a shard runner.",
    ),
    StreamNamespace(
        pattern="shard.cell<cell>.weather",
        owner="repro.sensors",
        description="One sharded farm's synthetic weather field.",
    ),
    StreamNamespace(
        pattern="shard.cell<cell>.instruments",
        owner="repro.sensors",
        description="One sharded farm's weather-station instrument noise.",
    ),
    StreamNamespace(
        pattern="shard.cell<cell>.robot",
        owner="repro.sensors",
        description="One sharded farm's Farm-ng robot noise.",
    ),
    StreamNamespace(
        pattern="shard.cell<cell>.transfer",
        owner="repro.cspot",
        description="Per-site CSPOT transfer latency draws across the shard boundary.",
    ),
)


#: ``<placeholder>`` segments in namespace patterns.
_PLACEHOLDER_RE = re.compile(r"<[^<>]+>")
#: Stands in for a placeholder while two patterns are walked in step.
_ANY = "\0"


def _overlap(a: str, b: str) -> bool:
    """Whether some stream name matches both patterns.

    The patterns come with each placeholder replaced by ``_ANY``. Exact:
    walks the two in step, a literal character matching itself and a
    placeholder one or more dot-free characters. From a placeholder the
    walk either stays (it takes another character) or moves on (it is
    done).
    """
    seen: set[tuple[int, int]] = set()
    todo = [(0, 0)]
    while todo:
        i, j = todo.pop()
        if i == len(a) and j == len(b):
            return True
        if i == len(a) or j == len(b) or (i, j) in seen:
            continue
        seen.add((i, j))
        ca, cb = a[i], b[j]
        if ca == cb or (ca == _ANY and cb != ".") or (cb == _ANY and ca != "."):
            next_i = (i, i + 1) if ca == _ANY else (i + 1,)
            next_j = (j, j + 1) if cb == _ANY else (j + 1,)
            todo.extend((x, y) for x in next_i for y in next_j)
    return False


def check_disjoint(patterns: Sequence[str]) -> None:
    """Raise ``ValueError`` if any two ``patterns`` overlap.

    Overlapping namespaces would hand two subsystems the same
    ``(master seed, name)`` generator: correlated randomness by
    construction.
    """
    walkable = [_PLACEHOLDER_RE.sub(_ANY, p) for p in patterns]
    for k, a in enumerate(walkable):
        for j in range(k + 1, len(walkable)):
            if _overlap(a, walkable[j]):
                raise ValueError(
                    f"stream namespaces {patterns[k]!r} and {patterns[j]!r} "
                    "overlap: one stream name could fall in both"
                )


check_disjoint([ns.pattern for ns in STREAM_NAMESPACES])

#: Each pattern compiled once: a placeholder matches one dot-free run.
_COMPILED = tuple(
    (
        re.compile(
            "[^.]+".join(map(re.escape, _PLACEHOLDER_RE.split(ns.pattern)))
        ),
        ns,
    )
    for ns in STREAM_NAMESPACES
)


def namespace_of(name: str) -> StreamNamespace:
    """The declared namespace ``name`` falls in.

    Raises ``ValueError`` for a name no pattern matches: an undeclared
    stream has no owner and no collision guard.
    """
    for regex, ns in _COMPILED:
        if regex.fullmatch(name):
            return ns
    raise ValueError(
        f"RNG stream {name!r} matches no namespace in STREAM_NAMESPACES "
        "(repro.simkernel.streams); declare it there with its owner"
    )
