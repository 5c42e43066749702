"""Per-layer wall-time tracing, installed from outside the program.

The traced repetition wraps each layer's public entry points (listed in
:func:`probes`) with timing wrappers that live in this file, so nothing
under ``src/`` changes. Every wrapper records one span -- name, layer,
start, end, parent -- on an in-memory stack; the spans are reduced to
per-layer self times and a per-name table when the run ends.

Process bodies are covered too: :meth:`Engine.process` is wrapped so each
generator resumption becomes a span charged to the layer whose module
(``repro/<layer>/...``) defines the generator. ``XGFabric._telemetry_loop``
is core time, ``RemoteAppendClient._retry_body`` is cspot time.

A name bound with ``from x import f`` is patched where it is looked up
(``repro.core.fabric.case_from_telemetry``), not where it is defined.
"""

from __future__ import annotations

import functools
import importlib
import re
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

#: Layers whose self time is reported (``<layer>.self_s``). Time charged to
#: any other layer still counts towards ``trace.unattributed_s`` coverage.
REPORTED_LAYERS = (
    "cfd", "simkernel", "cspot", "sensors", "core", "laminar",
    "pilot", "hpc", "radio", "obs", "parallel",
)

#: Counters the probes fill; all are reported, zero when never touched.
COUNTERS = (
    "cfd.solves", "cfd.cell_steps", "cfd.final_divergence_max",
    "simkernel.events",
    "cspot.appends", "cspot.append_attempts", "cspot.fetches",
    "cspot.scanned_entries",
    "sensors.reads", "core.twin_compares", "laminar.epochs",
    "pilot.tasks", "pilot.pilots_submitted", "hpc.jobs_submitted",
    "radio.ue_samples", "obs.sketch_values",
)

_LAYER_OF_FILE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


class SpanRecorder:
    """Spans as ``[name, layer, start, end, parent]`` rows, in entry order.

    ``parent`` is the row index of the span that was open when this one
    started (-1 at top level), so a parent always precedes its children.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self._open: list[int] = []

    def reset(self) -> None:
        """Forget everything recorded so far (no span may be open)."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0.0)

    def enter(self, name: str, layer: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, layer, self._clock(), 0.0, parent])

    def exit(self) -> None:
        self.spans[self._open.pop()][3] = self._clock()


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Summed over every span, self times cover each traced instant exactly
    once.
    """
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_table(spans: list[list[Any]]) -> dict[str, list[Any]]:
    """Per span name: ``[layer, count, total_s, self_s]``."""
    table: dict[str, list[Any]] = {}
    for (name, layer, start, end, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, [layer, 0, 0.0, 0.0])
        row[1] += 1
        row[2] += end - start
        row[3] += own
    return table


def self_by_layer(spans: list[list[Any]]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for (_, layer, _, _, _), own in zip(spans, self_times(spans)):
        out[layer] += own
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(rec: SpanRecorder, run_wall_s: float) -> dict[str, float]:
    """Every trace-derived per-layer metric of one traced run."""
    table = span_table(rec.spans)
    own = self_by_layer(rec.spans)

    def inclusive(*names: str) -> float:
        return sum(table[n][2] for n in names if n in table)

    c = rec.counts
    out = {f"{layer}.self_s": own.get(layer, 0.0) for layer in REPORTED_LAYERS}
    out.update(c)
    out["cfd.cell_steps_per_s"] = _ratio(
        c["cfd.cell_steps"], inclusive("ProjectionSolver.solve")
    )
    out["cspot.append_success_ratio"] = _ratio(
        c["cspot.appends"], c["cspot.append_attempts"]
    )
    out["radio.realize_s"] = inclusive(
        "UEPopulation.cell_counts", "UEPopulation.realize_cells"
    )
    out["radio.ue_samples_per_s"] = _ratio(
        c["radio.ue_samples"], inclusive("CellPopulation.uplink_matrix")
    )
    out["parallel.merge_s"] = inclusive("merge_sketches", "merge_streams")
    out["trace.unattributed_s"] = run_wall_s - sum(own.values())
    return out


# -- probes ------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """One entry point to wrap: ``owner.attr`` charged to ``layer``.

    ``owner`` is a dotted path: a module (for functions) or a class.
    ``observe(counts, args, result)`` updates counters after each call.
    """

    owner: str
    attr: str
    layer: str
    observe: Optional[Callable[[dict[str, float], tuple[Any, ...], Any], None]] = None


def _count(key: str) -> Callable[[dict[str, float], tuple[Any, ...], Any], None]:
    def observe(counts: dict[str, float], _args: tuple[Any, ...], _result: Any) -> None:
        counts[key] += 1

    return observe


def _observe_solve(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    counts["cfd.solves"] += 1
    counts["cfd.cell_steps"] += args[0].mesh.n_cells * result.steps_run
    counts["cfd.final_divergence_max"] = max(
        counts["cfd.final_divergence_max"], result.final_divergence
    )


def _observe_uplink(counts: dict[str, float], _args: tuple[Any, ...], result: Any) -> None:
    counts["radio.ue_samples"] += result.size


def _observe_sketch(counts: dict[str, float], args: tuple[Any, ...], _result: Any) -> None:
    counts["obs.sketch_values"] += args[1].size


def probes() -> list[Probe]:
    """The wrapped entry points, by layer (the table in README.md)."""
    pc = "repro.pilot.controller.PilotController"
    return [
        Probe("repro.cfd.solver.ProjectionSolver", "solve", "cfd", _observe_solve),
        Probe("repro.cfd.case.CfdCase", "build_solver", "cfd"),
        Probe("repro.core.fabric", "case_from_telemetry", "cfd"),
        Probe("repro.simkernel.engine.Engine", "run", "simkernel"),
        Probe("repro.simkernel.engine.Engine", "drain_window", "simkernel"),
        Probe("repro.cspot.transport.RemoteAppendClient", "append", "cspot",
              _count("cspot.appends")),
        Probe("repro.cspot.transport.Transport", "remote_append", "cspot",
              _count("cspot.append_attempts")),
        Probe("repro.cspot.transport.Transport", "remote_fetch", "cspot",
              _count("cspot.fetches")),
        Probe("repro.cspot.node.CSPOTNode", "local_append", "cspot"),
        Probe("repro.cspot.log.WooF", "get", "cspot"),
        Probe("repro.sensors.station.WeatherStation", "read", "sensors",
              _count("sensors.reads")),
        Probe("repro.sensors.robot.FarmNgRobot", "dispatch", "sensors"),
        Probe("repro.core.digital_twin.DigitalTwin", "update", "core"),
        Probe("repro.core.digital_twin.DigitalTwin", "compare", "core",
              _count("core.twin_compares")),
        Probe("repro.core.telemetry.TelemetryRecord", "to_bytes", "core"),
        Probe("repro.core.telemetry.TelemetryRecord", "from_bytes", "core"),
        Probe("repro.laminar.runtime.LaminarRuntime", "submit", "laminar",
              _count("laminar.epochs")),
        Probe("repro.laminar.runtime.LaminarRuntime", "value", "laminar"),
        Probe("repro.laminar.change_detect.ChangeDetector", "compare", "laminar"),
        *(Probe(pc, name, "pilot") for name in (
            "nodes_required", "nodes_available", "on_data", "bootstrap",
            "best_pilot_for", "retire_finished",
        )),
        Probe("repro.pilot.pilot.Pilot", "submit", "pilot",
              _count("pilot.pilots_submitted")),
        Probe("repro.pilot.pilot.Pilot", "run_task", "pilot", _count("pilot.tasks")),
        Probe("repro.hpc.site.HpcSite", "submit", "hpc", _count("hpc.jobs_submitted")),
        Probe("repro.radio.population.UEPopulation", "cell_counts", "radio"),
        Probe("repro.radio.population.UEPopulation", "realize_cells", "radio"),
        Probe("repro.radio.population.CellPopulation", "uplink_matrix", "radio",
              _observe_uplink),
        Probe("repro.radio.core5g.Core5G", "route_uplink", "radio"),
        Probe("repro.obs.stream.QuantileSketch", "add_array", "obs", _observe_sketch),
        Probe("repro.parallel.coordinator", "run_shards_serial", "parallel"),
        Probe("repro.parallel.coordinator", "run_shards_spawn", "parallel"),
        Probe("repro.parallel.shard.ShardRunner", "advance", "parallel"),
        Probe("repro.parallel.coordinator", "merge_sketches", "parallel"),
        Probe("repro.parallel.coordinator", "merge_streams", "parallel"),
    ]


def _resolve(path: str) -> Any:
    """Import ``a.b.c`` as a module, or as attribute ``c`` of module ``a.b``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def _layer_of(generator: Any) -> str:
    code = getattr(generator, "gi_code", None)
    match = _LAYER_OF_FILE.search(code.co_filename) if code is not None else None
    return match.group(1) if match else "other"


class _Resumptions:
    """A process body whose every resumption is one span.

    Forwards the generator protocol unchanged, so the engine cannot tell
    it from the generator it wraps.
    """

    def __init__(self, body: Any, rec: SpanRecorder) -> None:
        self._body = body
        self._rec = rec
        self._layer = _layer_of(body)
        qualname = getattr(body, "__qualname__", "process")
        self._span = f"resume:{qualname}"
        self.__name__ = getattr(body, "__name__", "process")

    def send(self, value: Any) -> Any:
        self._rec.enter(self._span, self._layer)
        try:
            return self._body.send(value)
        finally:
            self._rec.exit()

    def throw(self, error: BaseException) -> Any:
        self._rec.enter(self._span, self._layer)
        try:
            return self._body.throw(error)
        finally:
            self._rec.exit()

    def close(self) -> None:
        self._body.close()

    def __iter__(self) -> "_Resumptions":
        return self

    def __next__(self) -> Any:
        return self.send(None)


class Tracing:
    """Installs the probes on :meth:`install` and restores them on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracing":
        self.install()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracing is already installed")
        rec = self.recorder
        for probe in probes():
            owner = _resolve(probe.owner)
            # Methods are named Class.method; module functions by their name.
            name = f"{owner.__name__}.{probe.attr}" if isinstance(owner, type) else probe.attr
            self._replace(owner, probe.attr, functools.partial(
                _timed, name=name, layer=probe.layer, rec=rec, observe=probe.observe
            ))
        engine = _resolve("repro.simkernel.engine.Engine")
        self._replace(engine, "step", functools.partial(_counted, rec=rec))
        self._replace(engine, "process", functools.partial(_proxied, rec=rec))
        self._replace(_resolve("repro.cspot.log.WooF"), "scan", functools.partial(_scan, rec=rec))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner: Any, attr: str, make: Callable[..., Any]) -> None:
        original = vars(owner)[attr]
        kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        func = original.__func__ if kind is not None else original
        wrapper = functools.wraps(func)(make(func))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)


def _timed(
    func: Callable[..., Any],
    name: str,
    layer: str,
    rec: SpanRecorder,
    observe: Optional[Callable[[dict[str, float], tuple[Any, ...], Any], None]],
) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec.enter(name, layer)
        try:
            result = func(*args, **kwargs)
        finally:
            rec.exit()
        if observe is not None:
            observe(rec.counts, args, result)
        return result

    return wrapper


def _counted(func: Callable[..., Any], rec: SpanRecorder) -> Callable[..., Any]:
    def step(*args: Any, **kwargs: Any) -> Any:
        rec.counts["simkernel.events"] += 1
        return func(*args, **kwargs)

    return step


def _proxied(func: Callable[..., Any], rec: SpanRecorder) -> Callable[..., Any]:
    def process(engine: Any, generator: Any, *args: Any, **kwargs: Any) -> Any:
        return func(engine, _Resumptions(generator, rec), *args, **kwargs)

    return process


def _scan(func: Callable[..., Iterator[Any]], rec: SpanRecorder) -> Callable[..., Iterator[Any]]:
    def scan(*args: Any, **kwargs: Any) -> Iterator[Any]:
        for entry in func(*args, **kwargs):
            rec.counts["cspot.scanned_entries"] += 1
            yield entry

    return scan
