"""Per-rule positive/negative fixture tests.

Every rule in the catalog has a pair of fixture files under ``fixtures/``:
``<code>_bad.py`` must be flagged with that code, ``<code>_good.py`` is the
compliant rewrite and must lint completely clean. Fixtures are linted with
``scope="src"`` (the strictest scope) regardless of where they live on disk.
"""

from pathlib import Path

import pytest

from repro.lint import ALL_RULES, RULES_BY_CODE, lint_file, lint_source

FIXTURES = Path(__file__).parent / "fixtures"
CODES = sorted(RULES_BY_CODE)


def test_every_rule_has_fixture_pair():
    for code in CODES:
        assert (FIXTURES / f"{code.lower()}_bad.py").exists(), code
        assert (FIXTURES / f"{code.lower()}_good.py").exists(), code


def test_no_orphan_fixtures():
    for path in FIXTURES.glob("*.py"):
        code = path.stem.split("_")[0].upper()
        assert code in RULES_BY_CODE, f"fixture {path.name} matches no rule"


@pytest.mark.parametrize("code", CODES)
def test_bad_fixture_is_flagged(code):
    violations = lint_file(FIXTURES / f"{code.lower()}_bad.py", scope="src")
    assert code in {v.code for v in violations}, (
        f"{code} did not fire on its own bad fixture; got {violations}"
    )


@pytest.mark.parametrize("code", CODES)
def test_good_fixture_is_clean(code):
    violations = lint_file(FIXTURES / f"{code.lower()}_good.py", scope="src")
    assert violations == []


def test_rule_metadata_is_complete():
    for rule in ALL_RULES:
        assert rule.code.startswith("REPRO") and rule.code[5:].isdigit()
        assert rule.name
        assert rule.rationale
        assert rule.scopes


def test_violation_format_is_parseable():
    violations = lint_file(FIXTURES / "repro402_bad.py", scope="src")
    assert len(violations) == 1
    text = violations[0].format()
    # path:line:col: CODE message
    assert "repro402_bad.py" in text
    assert ": REPRO402 " in text


class TestScopes:
    """The same source is judged differently depending on where it lives."""

    WALL_CLOCK = "import time\n\n\ndef probe():\n    return time.time()\n"
    GLOBAL_RNG = "import numpy as np\n\n\ndef draw():\n    return np.random.rand()\n"

    def test_wall_clock_flagged_in_src(self):
        assert any(
            v.code == "REPRO101"
            for v in lint_source(self.WALL_CLOCK, scope="src")
        )

    def test_wall_clock_allowed_in_tests(self):
        assert lint_source(self.WALL_CLOCK, scope="tests") == []

    def test_global_rng_flagged_even_in_tests(self):
        for scope in ("src", "tests", "benchmarks", "examples"):
            assert any(
                v.code == "REPRO202"
                for v in lint_source(self.GLOBAL_RNG, scope=scope)
            ), scope

    def test_scope_classified_from_path(self):
        assert any(
            v.code == "REPRO101"
            for v in lint_source(self.WALL_CLOCK, path="src/repro/foo.py")
        )
        assert lint_source(self.WALL_CLOCK, path="tests/foo/test_x.py") == []


class TestAllowlists:
    """Deliberate dual-clock / registry seams are exempt by path suffix."""

    def test_tracer_may_read_wall_clock(self):
        src = "import time\n\n\ndef span():\n    return time.perf_counter()\n"
        assert any(
            v.code == "REPRO101"
            for v in lint_source(src, path="src/repro/obs/export.py")
        )
        assert lint_source(src, path="src/repro/obs/trace.py") == []

    def test_registry_may_construct_generators(self):
        src = (
            "import numpy as np\n\n\n"
            "def get(seed):\n    return np.random.default_rng(seed)\n"
        )
        assert any(
            v.code == "REPRO201"
            for v in lint_source(src, path="src/repro/cspot/faults.py")
        )
        assert lint_source(src, path="src/repro/simkernel/rng.py") == []


class TestImportResolution:
    """Aliased imports cannot dodge the banned-call sets."""

    def test_module_alias(self):
        src = "import numpy.random as nr\n\nr = nr.default_rng(3)\n"
        assert any(v.code == "REPRO201" for v in lint_source(src, scope="src"))

    def test_from_import_alias(self):
        src = "from numpy.random import default_rng as mk\n\nr = mk(3)\n"
        assert any(v.code == "REPRO201" for v in lint_source(src, scope="src"))

    def test_unrelated_name_not_confused(self):
        # A local function that merely *shares* a banned suffix is fine.
        src = "def default_rng(x):\n    return x\n\n\nr = default_rng(3)\n"
        assert lint_source(src, scope="src") == []


class TestUnseededVariants:
    def test_none_seed_keyword_flagged(self):
        src = "import numpy as np\n\nr = np.random.default_rng(seed=None)\n"
        assert any(v.code == "REPRO203" for v in lint_source(src, scope="tests"))

    def test_none_positional_flagged(self):
        src = "import numpy as np\n\nr = np.random.default_rng(None)\n"
        assert any(v.code == "REPRO203" for v in lint_source(src, scope="tests"))

    def test_seeded_ok_in_tests(self):
        src = "import numpy as np\n\nr = np.random.default_rng(1234)\n"
        assert not any(
            v.code == "REPRO203" for v in lint_source(src, scope="tests")
        )


class TestProcessParallelism:
    """REPRO404: fork is banned outright; spawn only inside repro.parallel."""

    POOL = "import multiprocessing\n\np = multiprocessing.Pool(4)\n"
    SPAWN_CTX = (
        "import multiprocessing\n\nctx = multiprocessing.get_context('spawn')\n"
    )
    FORK_CTX = (
        "import multiprocessing\n\nctx = multiprocessing.get_context('fork')\n"
    )
    OS_FORK = "import os\n\npid = os.fork()\n"

    def test_pool_flagged_outside_parallel(self):
        for path in ("src/repro/core/scale.py", "tests/core/test_scale.py"):
            assert any(
                v.code == "REPRO404" for v in lint_source(self.POOL, path=path)
            ), path

    def test_spawn_context_sanctioned_inside_parallel(self):
        for path in (
            "src/repro/parallel/coordinator.py",
            "tests/parallel/test_sharded_determinism.py",
        ):
            assert lint_source(self.SPAWN_CTX, path=path) == [], path

    def test_fork_context_banned_even_inside_parallel(self):
        assert any(
            v.code == "REPRO404"
            for v in lint_source(
                self.FORK_CTX, path="src/repro/parallel/coordinator.py"
            )
        )

    def test_forkserver_keyword_banned(self):
        src = (
            "import multiprocessing\n\n"
            "multiprocessing.set_start_method(method='forkserver')\n"
        )
        assert any(
            v.code == "REPRO404"
            for v in lint_source(src, path="src/repro/parallel/worker.py")
        )

    def test_os_fork_banned_everywhere(self):
        for path in (
            "src/repro/parallel/worker.py",
            "tests/parallel/test_plan.py",
            "benchmarks/test_parallel_perf.py",
        ):
            assert any(
                v.code == "REPRO404"
                for v in lint_source(self.OS_FORK, path=path)
            ), path

    def test_thread_pool_not_confused_with_process_pool(self):
        src = (
            "from concurrent.futures import ThreadPoolExecutor\n\n"
            "pool = ThreadPoolExecutor()\n"
        )
        assert lint_source(src, path="src/repro/cfd/solver.py") == []

    def test_shard_worker_may_read_wall_clock(self):
        src = "import time\n\n\ndef probe():\n    return time.perf_counter()\n"
        assert lint_source(src, path="src/repro/parallel/worker.py") == []


def test_syntax_error_becomes_repro000():
    violations = lint_source("def broken(:\n", path="src/repro/x.py")
    assert [v.code for v in violations] == ["REPRO000"]
