"""The stream namespace registry and the checks that keep it honest.

Import-time disjointness, ``RngRegistry`` name validation, and a traffic
test that runs every workload family and checks who draws which stream.
"""

import re
import sys
import warnings

import pytest

from repro.chaos import randomized_campaign
from repro.core import FabricConfig, ShardedFabricScenario, XGFabric
from repro.parallel import ShardedScaleScenario
from repro.radio.population import UEPopulation
from repro.sensors.weather import RegimeShift
from repro.simkernel import Engine, RngRegistry
from repro.simkernel.streams import (
    SHARD_PREFIX,
    STREAM_NAMESPACES,
    cell_stream,
    check_disjoint,
    cspot_fault_stream,
    hpc_background_load_stream,
    namespace_of,
    population_stream,
    shard_stream,
)


def concrete_name(ns):
    """A stream name in ``ns``: each placeholder filled with ``7``."""
    return re.sub(r"<[^<>]+>", "7", ns.pattern)


class TestHelpers:
    def test_cell_stream_zero_pads(self):
        assert cell_stream("shard", 5, "gain") == "shard.cell005.gain"
        assert cell_stream("shard", 123, "gain") == "shard.cell123.gain"

    def test_shard_stream_uses_shard_prefix(self):
        assert shard_stream(7, "radio") == cell_stream(SHARD_PREFIX, 7, "radio")

    def test_cspot_fault_stream_is_directional(self):
        assert cspot_fault_stream("farm", "hub") != cspot_fault_stream(
            "hub", "farm"
        )

    def test_hpc_stream_keyed_by_site(self):
        assert hpc_background_load_stream("anvil") == (
            "hpc.background-load.anvil"
        )

    def test_population_stream(self):
        assert population_stream("population", "cells") == "population.cells"

    @pytest.mark.parametrize(
        "call",
        [
            lambda: cell_stream("shard", -1, "gain"),
            lambda: cell_stream("shard", 0, ""),
            lambda: shard_stream(0, ""),
            lambda: population_stream("population", ""),
        ],
    )
    def test_invalid_inputs_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestNamespaceTable:
    def test_patterns_are_unique(self):
        patterns = [ns.pattern for ns in STREAM_NAMESPACES]
        assert len(patterns) == len(set(patterns))

    def test_every_namespace_is_documented_and_owned(self):
        for ns in STREAM_NAMESPACES:
            assert ns.owner.startswith("repro."), ns.pattern
            assert ns.description.strip(), ns.pattern

    def test_patterns_are_well_formed(self):
        # Dotted segments of word characters / dashes, with optional
        # <placeholder> wildcards; nothing else sneaks in.
        segment = r"(?:[\w\-]|<[a-z]+>)+"
        shape = re.compile(rf"{segment}(?:\.{segment})*")
        for ns in STREAM_NAMESPACES:
            assert shape.fullmatch(ns.pattern), ns.pattern

    def test_helper_outputs_land_in_declared_namespaces(self):
        produced = {
            cspot_fault_stream("a", "b"): "cspot.faults.<src>-<dst>",
            hpc_background_load_stream("anvil"): "hpc.background-load.<site>",
            population_stream("population", "cells"): "population.cells",
            shard_stream(3, "radio"): "shard.cell<cell>.radio",
            cell_stream("shard", 3, "gain"): "shard.cell<cell>.gain",
        }
        for name, pattern in produced.items():
            assert namespace_of(name).pattern == pattern, name


class TestDisjointness:
    """The import-time check: no stream name may fall in two namespaces."""

    @pytest.mark.parametrize(
        ("a", "b"),
        [
            ("chaos", "chaos"),
            ("cspot.faults.a-b", "cspot.faults.<src>-<dst>"),
            ("hpc.background-load.<name>", "hpc.background-load.<site>"),
            ("shard.cell<c>.radio", "shard.cell<cell>.radio"),
            ("population.cells", "population.<kind>"),
            ("shard.cell<cell>.<kind>", "shard.cell<cell>.radio"),
            ("a<x>b", "<y>ab"),
        ],
    )
    def test_overlapping_patterns_rejected(self, a, b):
        for pair in ([a, b], [b, a]):
            with pytest.raises(ValueError, match="overlap"):
                check_disjoint(pair)

    @pytest.mark.parametrize(
        ("a", "b"),
        [
            ("chaos", "cspot.transport"),
            ("chaos.extra", "chaos"),
            ("population.cells.extra", "population.<kind>"),
            ("shard.cell0.radio", "shard.cell<cell>.sensors"),
            ("<x>", "a.b"),
            ("alpha.<x>", "gamma.beta"),
        ],
    )
    def test_disjoint_patterns_accepted(self, a, b):
        check_disjoint([a, b])
        check_disjoint([b, a])


class TestRngRegistryNames:
    @pytest.mark.parametrize("bad", ["", "   ", "\t", None, 3, b"chaos"])
    def test_blank_or_non_string_names_rejected(self, bad):
        registry = RngRegistry(master_seed=1)
        with pytest.raises(ValueError, match="non-blank string"):
            registry.get(bad)

    @pytest.mark.parametrize(
        "undeclared",
        ["hpc.background-load", "cspot.lognormal", "cspot.faults", "rogue.stream"],
    )
    def test_undeclared_names_rejected(self, undeclared):
        with pytest.raises(ValueError, match="STREAM_NAMESPACES"):
            RngRegistry(master_seed=1).get(undeclared)

    def test_engine_draw_of_undeclared_name_raises(self):
        # Library code draws through ``engine.rng``; the check sits under it.
        engine = Engine(seed=1)
        with pytest.raises(ValueError, match="STREAM_NAMESPACES"):
            engine.rng("rogue.stream")
        assert engine.rngs.names() == []

    def test_every_namespace_accepts_a_concrete_name(self):
        registry = RngRegistry(master_seed=1)
        for ns in STREAM_NAMESPACES:
            name = concrete_name(ns)
            assert namespace_of(name) is ns
            assert registry.get(name) is registry.get(name)
        assert len(registry.names()) == len(STREAM_NAMESPACES)

    def test_valid_name_still_works(self):
        registry = RngRegistry(master_seed=1)
        draws = registry.get("chaos").random(3)
        assert len(draws) == 3
        assert registry.get("chaos") is registry.get("chaos")


def undrawn_namespaces(traffic):
    """Patterns of the declared namespaces no ``(name, module)`` draws."""
    drawn = {namespace_of(name) for name, _ in traffic}
    return [ns.pattern for ns in STREAM_NAMESPACES if ns not in drawn]


def foreign_draws(traffic):
    """``(name, module)`` pairs where library code draws another's stream.

    Library draws only; tests may draw any declared stream.
    """
    foreign = []
    for name, module in sorted(traffic):
        owner = namespace_of(name).owner
        if module.startswith("repro.") and not (
            module == owner or module.startswith(owner + ".")
        ):
            foreign.append((name, module))
    return foreign


@pytest.fixture(scope="module")
def stream_traffic():
    """``{(stream name, drawing module)}`` over one run of each workload.

    The drawing module is the first caller outside ``repro.simkernel``,
    so a draw through ``engine.rng`` or a helper such as
    ``instrument_rng`` is charged to the module that asked for it.
    """
    traffic = set()
    plain_get = RngRegistry.get

    def recording_get(self, name):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"].startswith("repro.simkernel"):
            frame = frame.f_back
        traffic.add((name, frame.f_globals["__name__"]))
        return plain_get(self, name)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(RngRegistry, "get", recording_get)
        warnings.simplefilter("ignore", RuntimeWarning)
        # Background jobs draw the HPC load stream; the regime shift
        # triggers a twin solve, which draws cfd.runtime. The sharded
        # runs keep the default serial executor, so every draw happens
        # in this process.
        hours = 3 * 3600.0
        fabric = XGFabric(FabricConfig(seed=3, background_jobs_per_hour=2.0))
        fabric.weather.add_shift(
            RegimeShift(at_time_s=3600.0, wind_delta_mps=2.5)
        )
        randomized_campaign(fabric, hours, n_faults=3).attach(fabric)
        fabric.run(hours)
        ShardedScaleScenario(
            population=UEPopulation(n_cells=2),
            horizon_s=20.0,
            window_s=10.0,
            workers=2,
        ).run()
        ShardedFabricScenario(n_sites=2, workers=2).run()
    return traffic


class TestStreamProvenance:
    """Every declared namespace is drawn, and only by its owner."""

    def test_every_namespace_is_drawn(self, stream_traffic):
        undrawn = undrawn_namespaces(stream_traffic)
        assert not undrawn, f"namespaces nothing draws: {undrawn}"

    def test_every_drawer_is_its_namespace_owner(self, stream_traffic):
        foreign = foreign_draws(stream_traffic)
        assert not foreign, f"streams drawn outside their owner: {foreign}"

    def test_every_library_draw_resolves_to_a_namespace(self, stream_traffic):
        library = {
            name for name, module in stream_traffic if module.startswith("repro.")
        }
        assert library, "no library draws recorded -- recorder broken?"
        for name in sorted(library):
            assert namespace_of(name).pattern, name

    def test_undrawn_namespace_is_reported(self):
        traffic = {
            (concrete_name(ns), ns.owner)
            for ns in STREAM_NAMESPACES
            if ns.pattern != "cfd.runtime"
        }
        assert undrawn_namespaces(traffic) == ["cfd.runtime"]

    def test_foreign_drawer_is_reported(self):
        traffic = {
            ("cspot.transport", "repro.cspot.transport"),
            ("cspot.transport", "repro.hpc.site"),
            # A name that merely starts like the owner is still foreign.
            ("cspot.transport", "repro.cspotless"),
        }
        assert foreign_draws(traffic) == [
            ("cspot.transport", "repro.cspotless"),
            ("cspot.transport", "repro.hpc.site"),
        ]

    def test_test_module_drawers_are_exempt(self):
        traffic = {
            ("cspot.transport", "tests.hpc.test_site"),
            ("hpc.background-load.anvil", "benchmarks.e2e.run"),
        }
        assert foreign_draws(traffic) == []
