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
* The whole-program analyzer (``python -m repro.lint --program``)
  resolves every ``engine.rng(...)`` / ``RngRegistry.get(...)`` call
  site against this table (REPRO501-504) and regenerates the committed
  registry page ``docs/rng-streams.md`` from it.

Adding a stream: declare the namespace here, add a constant or helper,
regenerate the doc (``--emit-stream-registry docs/rng-streams.md``), and
draw the stream from its owning package.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StreamNamespace:
    """One declared RNG stream namespace.

    ``pattern`` is the dotted stream name; ``<placeholder>`` marks a
    variable segment (matches one dot-free run). ``owner`` is the
    package whose *library code* may draw the stream -- tests,
    benchmarks and examples may draw anything.
    """

    pattern: str
    owner: str
    description: str


# -- sensors -----------------------------------------------------------------

#: Farm-ng robot motion/measurement noise.
SENSORS_ROBOT = "sensors.robot"
#: Synthetic weather field (diurnal wind + gusts).
SENSORS_WEATHER = "sensors.weather"
#: Per-reading instrument noise on every weather station.
SENSORS_INSTRUMENTS = "sensors.instruments"

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


#: The declared namespace table, in registry order. The whole-program
#: analyzer unions every ``STREAM_NAMESPACES`` it finds in the scanned
#: tree (fixture corpora declare their own), checks declared patterns
#: for overlap (REPRO501), attributes every call site to a namespace
#: (REPRO504), enforces owners (REPRO502), and reports namespaces no
#: call site draws (REPRO503).
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
        pattern="shard.cell<cell>.sensors",
        owner="repro.parallel",
        description="Per-site sensor noise on a fabric shard runner.",
    ),
    StreamNamespace(
        pattern="shard.cell<cell>.transfer",
        owner="repro.parallel",
        description="Per-site CSPOT transfer latency draws on a fabric shard.",
    ),
)
