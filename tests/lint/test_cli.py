"""CLI behaviour (exit codes, baseline workflow) and the repo self-check."""

from pathlib import Path

import pytest

from repro.lint import main

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = "def f(engine):\n    return engine.now\n"
DIRTY = "import time\n\n\ndef probe():\n    return time.time()\n"


def _write(tmp_path: Path, name: str, content: str) -> Path:
    target = tmp_path / "src" / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(content)
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch):
        _write(tmp_path, "clean.py", CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 0

    def test_violations_exit_one(self, tmp_path, monkeypatch, capsys):
        _write(tmp_path, "dirty.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "REPRO101" in out and "src/dirty.py" in out

    def test_unknown_select_code_exits_two(self, tmp_path, monkeypatch):
        _write(tmp_path, "clean.py", CLEAN)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["src", "--select", "REPRO999"])
        assert excinfo.value.code == 2

    def test_select_retired_program_code_exits_two(self, tmp_path, monkeypatch):
        # REPRO504 is not a lint code: RngRegistry.get checks stream names.
        _write(tmp_path, "clean.py", CLEAN)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["src", "--select", "REPRO504"])
        assert excinfo.value.code == 2

    def test_missing_path_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-dir"])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REPRO101" in out and "REPRO403" in out

    def test_list_rules_drops_retired_program_codes(self, capsys):
        # Wall-clock taint stays a lint rule; REPRO501-504 and REPRO511
        # became runtime checks and left the catalog.
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REPRO521" in out
        for code in ("REPRO501", "REPRO502", "REPRO503", "REPRO504", "REPRO511"):
            assert code not in out


class TestJsonFormat:
    def test_json_format_one_finding_per_line(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        _write(tmp_path, "dirty.py", DIRTY)
        _write(tmp_path, "worse.py", DIRTY.replace("time.time", "time.monotonic"))
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--format", "json"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        findings = [json.loads(line) for line in lines]
        assert len(findings) == 2
        assert {f["path"] for f in findings} == {"src/dirty.py", "src/worse.py"}
        for finding in findings:
            assert finding["code"] == "REPRO101"
            assert {
                "path", "line", "col", "code", "message", "fingerprint",
            } <= set(finding)

    def test_json_format_clean_emits_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        _write(tmp_path, "clean.py", CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--format", "json"]) == 0
        assert capsys.readouterr().out == ""

    def test_json_output_is_byte_stable(self, tmp_path, monkeypatch, capsys):
        _write(tmp_path, "dirty.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        main(["src", "--format", "json"])
        first = capsys.readouterr().out
        assert first
        main(["src", "--format", "json"])
        assert capsys.readouterr().out == first


class TestRuleSelection:
    def test_ignore_silences_code(self, tmp_path, monkeypatch):
        _write(tmp_path, "dirty.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--ignore", "REPRO101"]) == 0

    def test_select_narrows_to_code(self, tmp_path, monkeypatch):
        _write(tmp_path, "dirty.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--select", "REPRO402"]) == 0
        assert main(["src", "--select", "REPRO101"]) == 1


class TestBaselineWorkflow:
    def test_write_then_clean(self, tmp_path, monkeypatch, capsys):
        _write(tmp_path, "dirty.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--write-baseline"]) == 0
        assert (tmp_path / "repro-lint.baseline").exists()
        # Grandfathered: the same violation no longer fails the run ...
        assert main(["src"]) == 0
        capsys.readouterr()
        # ... but --no-baseline still reports it.
        assert main(["src", "--no-baseline"]) == 1

    def test_new_violation_not_masked_by_baseline(self, tmp_path, monkeypatch):
        _write(tmp_path, "dirty.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--write-baseline"]) == 0
        _write(tmp_path, "worse.py", DIRTY.replace("time.time", "time.monotonic"))
        assert main(["src"]) == 1

    def test_stale_entries_warn(self, tmp_path, monkeypatch, capsys):
        _write(tmp_path, "dirty.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--write-baseline"]) == 0
        _write(tmp_path, "dirty.py", CLEAN)
        assert main(["src"]) == 0
        assert "stale" in capsys.readouterr().err

    def test_statistics(self, tmp_path, monkeypatch, capsys):
        _write(tmp_path, "dirty.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--statistics", "--no-baseline"]) == 1
        assert "REPRO101: 1" in capsys.readouterr().out

    def test_default_justification_stamped(self, tmp_path, monkeypatch):
        from repro.lint.baseline import Baseline

        _write(tmp_path, "dirty.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--write-baseline"]) == 0
        text = (tmp_path / "repro-lint.baseline").read_text()
        assert Baseline.DEFAULT_JUSTIFICATION in text
        assert "TODO" not in text

    def test_custom_justification_flag(self, tmp_path, monkeypatch):
        _write(tmp_path, "dirty.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        assert main([
            "src", "--write-baseline",
            "--justification", "legacy probe, tracked in #42",
        ]) == 0
        text = (tmp_path / "repro-lint.baseline").read_text()
        assert "legacy probe, tracked in #42" in text

    def test_justification_requires_write_baseline(self, tmp_path, monkeypatch):
        _write(tmp_path, "clean.py", CLEAN)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["src", "--justification", "x"])
        assert excinfo.value.code == 2


class TestFixtureExclusion:
    def test_fixture_corpus_never_scanned(self, monkeypatch, capsys):
        # The deliberate-violation fixtures under tests/lint/fixtures must
        # be invisible to a scan of the tests tree.
        monkeypatch.chdir(REPO_ROOT)
        assert main(["tests/lint", "--no-baseline"]) == 0


class TestSelfCheck:
    """The analyzer's own acceptance gate: the repo lints clean."""

    def test_repo_lints_clean_with_committed_baseline(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert (
            main(
                [
                    "src",
                    "tests",
                    "benchmarks",
                    "--baseline",
                    "repro-lint.baseline",
                ]
            )
            == 0
        )

    def test_committed_baseline_has_no_stale_entries(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        main(["src", "tests", "benchmarks", "--baseline", "repro-lint.baseline"])
        assert "stale" not in capsys.readouterr().err
