"""Whole-program (REPRO5xx) passes: fixtures, real tree, cache, registry."""

from pathlib import Path

import pytest

from repro.lint.graph import (
    SummaryCache,
    build_graph,
    module_name_for,
    summarize_source,
)
from repro.lint.program import (
    PROGRAM_RULES,
    PROGRAM_RULES_BY_CODE,
    analyze_graph,
    analyze_program,
    read_program_files,
)
from repro.lint.provenance import (
    render_stream_registry,
    resolve_sites,
    template_matches,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
PROGRAM_FIXTURES = Path(__file__).parent / "fixtures" / "program"
PROGRAM_CODES = sorted(PROGRAM_RULES_BY_CODE)

#: The paths CI scans; also what the committed registry page covers.
TREE = [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]


def read_case(case: str) -> list[tuple[str, bytes]]:
    root = PROGRAM_FIXTURES / case
    files = [
        (p.relative_to(root).as_posix(), p.read_bytes())
        for p in sorted(root.rglob("*.py"))
    ]
    assert files, f"empty fixture case {case!r}"
    return files


def run_case(case: str, codes: list[str] | None = None):
    graph = build_graph(read_case(case))
    rules = (
        tuple(PROGRAM_RULES_BY_CODE[c] for c in codes)
        if codes is not None
        else None
    )
    return analyze_graph(graph, rules)


@pytest.fixture(scope="module")
def tree_graph():
    return build_graph(read_program_files(TREE, root=REPO_ROOT))


class TestTemplateMatching:
    @pytest.mark.parametrize(
        ("template", "pattern"),
        [
            ("chaos", "chaos"),
            ("cspot.faults.a-b", "cspot.faults.<src>-<dst>"),
            ("hpc.background-load.<name>", "hpc.background-load.<site>"),
            ("shard.cell<c>.radio", "shard.cell<cell>.radio"),
            ("population.cells", "population.<kind>"),
        ],
    )
    def test_matches(self, template, pattern):
        assert template_matches(template, pattern)

    @pytest.mark.parametrize(
        ("template", "pattern"),
        [
            ("chaos", "cspot.transport"),
            ("chaos.extra", "chaos"),
            ("population.cells.extra", "population.<kind>"),
            ("shard.cell0.radio", "shard.cell<cell>.sensors"),
        ],
    )
    def test_rejects(self, template, pattern):
        assert not template_matches(template, pattern)


class TestProgramFixtures:
    @pytest.mark.parametrize("code", PROGRAM_CODES)
    def test_bad_case_is_flagged(self, code):
        case = f"{code.lower()}_bad"
        violations = run_case(case, codes=[code])
        assert any(v.code == code for v in violations), (
            f"{case} did not trigger {code}"
        )

    @pytest.mark.parametrize("code", PROGRAM_CODES)
    def test_good_case_is_clean(self, code):
        case = f"{code.lower()}_good"
        assert run_case(case) == []

    def test_unresolvable_seam_root_is_flagged(self):
        files = [
            (
                "src/demo/worker.py",
                b'PICKLE_SEAM_ROOTS = ("demo.gone.NoSuchTask",)\n',
            )
        ]
        violations = analyze_graph(
            build_graph(files), (PROGRAM_RULES_BY_CODE["REPRO511"],)
        )
        assert [v.code for v in violations] == ["REPRO511"]
        assert "does not resolve" in violations[0].message

    def test_inherited_ambient_field_is_flagged(self):
        files = [
            (
                "src/demo/worker.py",
                b'PICKLE_SEAM_ROOTS = ("demo.tasks.ShardTask",)\n',
            ),
            (
                "src/demo/base.py",
                b"import numpy as np\n"
                b"from dataclasses import dataclass\n"
                b"\n"
                b"@dataclass\n"
                b"class TaskBase:\n"
                b"    rng: np.random.Generator\n",
            ),
            (
                "src/demo/tasks.py",
                b"from dataclasses import dataclass\n"
                b"from demo.base import TaskBase\n"
                b"\n"
                b"@dataclass\n"
                b"class ShardTask(TaskBase):\n"
                b"    seed: int\n",
            ),
        ]
        violations = analyze_graph(
            build_graph(files), (PROGRAM_RULES_BY_CODE["REPRO511"],)
        )
        assert [v.code for v in violations] == ["REPRO511"]
        assert "`ShardTask.rng`" in violations[0].message
        assert violations[0].path == "src/demo/base.py"

    def test_suppression_silences_program_violation(self):
        bad = read_case("repro504_bad")
        suppressed = [
            (
                path,
                data.replace(
                    b'engine.rng("rogue.stream")',
                    b'engine.rng("rogue.stream")'
                    b"  # repro-lint: disable=REPRO504",
                ),
            )
            for path, data in bad
        ]
        assert analyze_graph(
            build_graph(bad), (PROGRAM_RULES_BY_CODE["REPRO504"],)
        ) != []
        assert analyze_graph(
            build_graph(suppressed), (PROGRAM_RULES_BY_CODE["REPRO504"],)
        ) == []

    def test_test_scope_draws_are_exempt_from_foreign_and_unregistered(self):
        # The same rogue draw in a *test* file is legal: tests may probe
        # any stream; only library (src) draws are policed.
        files = [
            (
                "tests/demo/test_rogue.py",
                b"def test_sample(engine):\n"
                b'    assert engine.rng("rogue.stream").normal() is not None\n',
            )
        ]
        violations = analyze_graph(
            build_graph(files),
            (
                PROGRAM_RULES_BY_CODE["REPRO502"],
                PROGRAM_RULES_BY_CODE["REPRO504"],
            ),
        )
        assert violations == []


class TestRealTree:
    def test_whole_program_pass_is_clean(self):
        violations, _ = analyze_program(TREE, root=REPO_ROOT)
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_every_src_draw_site_resolves_to_a_namespace(self, tree_graph):
        sites = resolve_sites(tree_graph)
        src_sites = [s for s in sites if s.mod.scope == "src"]
        assert src_sites, "no library draw sites found -- detector broken?"
        for site in src_sites:
            assert site.matches, (
                f"{site.mod.path}:{site.line} template {site.template!r} "
                "matches no declared namespace"
            )

    def test_committed_registry_page_is_current(self, tree_graph):
        committed = (REPO_ROOT / "docs" / "rng-streams.md").read_text(
            encoding="utf-8"
        )
        rendered = render_stream_registry(
            tree_graph, resolve_sites(tree_graph)
        )
        assert committed == rendered, (
            "docs/rng-streams.md is stale; regenerate with "
            "`python -m repro.lint --emit-stream-registry docs/rng-streams.md "
            "src tests benchmarks`"
        )

    def test_hpc_site_streams_are_per_site(self, tree_graph):
        # Regression: BackgroundLoadModel once drew a single shared
        # "hpc.background-load" stream for every site, correlating all
        # sites' load. The namespace is parameterized per site now.
        patterns = [
            d.pattern for _, d in tree_graph.all_namespaces()
        ]
        assert "hpc.background-load.<site>" in patterns
        assert "hpc.background-load" not in patterns


class TestSummaryCache:
    SOURCE = b'def sample(engine):\n    return engine.rng("chaos")\n'

    def test_cold_then_warm(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        files = [("src/demo/a.py", self.SOURCE)]

        cold = SummaryCache(cache_file)
        build_graph(files, cold)
        cold.save(p for p, _ in files)
        assert (cold.hits, cold.misses) == (0, 1)

        warm = SummaryCache(cache_file)
        graph = build_graph(files, warm)
        assert (warm.hits, warm.misses) == (1, 0)
        assert graph.modules["demo.a"].call_sites

    def test_content_change_invalidates(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        files = [("src/demo/a.py", self.SOURCE)]
        first = SummaryCache(cache_file)
        build_graph(files, first)
        first.save(p for p, _ in files)

        edited = [("src/demo/a.py", self.SOURCE + b"\n# touched\n")]
        second = SummaryCache(cache_file)
        build_graph(edited, second)
        assert (second.hits, second.misses) == (0, 1)

    def test_save_drops_dead_paths(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        files = [
            ("src/demo/a.py", self.SOURCE),
            ("src/demo/b.py", b"X = 1\n"),
        ]
        cache = SummaryCache(cache_file)
        build_graph(files, cache)
        cache.save(["src/demo/a.py"])

        reloaded = SummaryCache(cache_file)
        build_graph(files, reloaded)
        assert (reloaded.hits, reloaded.misses) == (1, 1)

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("not json{")
        cache = SummaryCache(cache_file)
        build_graph([("src/demo/a.py", self.SOURCE)], cache)
        assert (cache.hits, cache.misses) == (0, 1)


class TestSummaries:
    def test_module_name_for(self):
        assert module_name_for("src/repro/radio/population.py") == (
            "repro.radio.population"
        )
        assert module_name_for("src/repro/radio/__init__.py") == "repro.radio"
        assert module_name_for("tests/lint/test_cli.py") == (
            "tests.lint.test_cli"
        )

    def test_summary_round_trips_through_json(self):
        source = (
            "from repro.simkernel.streams import StreamNamespace\n"
            "PICKLE_SEAM_ROOTS = ('demo.tasks.Task',)\n"
            "STREAM_NAMESPACES = (\n"
            "    StreamNamespace('a.<x>', 'demo.a', 'd'),\n"
            ")\n"
            "PREFIX = 'a'\n"
            "def helper(kind):\n"
            "    return f'{PREFIX}.{kind}'\n"
            "def draw(engine, kind):\n"
            "    return engine.rng(helper(kind))\n"
        )
        summary = summarize_source("src/demo/streams.py", source)
        clone = type(summary).from_json(summary.to_json())
        assert clone == summary
        assert clone.seam_roots == ["demo.tasks.Task"]
        assert [n.pattern for n in clone.namespaces] == ["a.<x>"]
        assert "helper" in clone.functions
        assert len(clone.call_sites) == 1
