"""File discovery and the per-file rule-running driver."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint.context import FileContext
from repro.lint.rules import ALL_RULES, Rule
from repro.lint.violations import Violation

#: Directory names never scanned: caches, build output, and lint-fixture
#: corpora (which contain violations *on purpose*).
EXCLUDED_DIR_NAMES = frozenset(
    {
        "__pycache__",
        ".git",
        ".mypy_cache",
        ".ruff_cache",
        ".pytest_cache",
        "_artifacts",
        "build",
        "dist",
        "fixtures",
    }
)


def select_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] = (),
) -> tuple[Rule, ...]:
    """Resolve the active rule set from ``--select`` / ``--ignore`` codes."""
    selected = set(c.upper() for c in select) if select is not None else None
    ignored = {c.upper() for c in ignore}
    known = {r.code for r in ALL_RULES}
    unknown = ((selected or set()) | ignored) - known
    if unknown:
        raise ValueError(f"unknown rule codes: {', '.join(sorted(unknown))}")
    return tuple(
        rule
        for rule in ALL_RULES
        if (selected is None or rule.code in selected)
        and rule.code not in ignored
    )


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield .py files under ``paths`` (deterministic order, excl. caches)."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        else:
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (set(p.parts) & EXCLUDED_DIR_NAMES)
            )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def relative_posix(path: Path, root: Path | None = None) -> str:
    """Path as repo-relative posix text (stable across machines)."""
    base = root if root is not None else Path.cwd()
    try:
        rel = path.resolve().relative_to(base.resolve())
    except ValueError:
        rel = path
    return rel.as_posix()


def lint_source(
    source: str,
    path: str = "<string>",
    scope: str | None = None,
    rules: Sequence[Rule] | None = None,
) -> list[Violation]:
    """Lint a source string (the rule-test entry point).

    ``scope`` overrides path-based classification -- fixture files live
    under ``tests/`` but must be checked as library (``src``) code.
    """
    active = tuple(rules) if rules is not None else ALL_RULES
    try:
        ctx = FileContext.build(path, source, scope=scope)
    except SyntaxError as exc:
        return [
            Violation(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code="REPRO000",
                message=f"file does not parse: {exc.msg}",
                line_text=(exc.text or "").strip(),
            )
        ]
    found: list[Violation] = []
    for rule in active:
        if not rule.applies_to(ctx):
            continue
        for violation in rule.check(ctx):
            if not ctx.suppressed(violation.line, violation.code):
                found.append(violation)
    return sorted(set(found))


def lint_file(
    path: Path,
    root: Path | None = None,
    scope: str | None = None,
    rules: Sequence[Rule] | None = None,
) -> list[Violation]:
    """Lint one file; violations carry repo-relative posix paths."""
    source = path.read_text(encoding="utf-8")
    return lint_source(
        source, path=relative_posix(path, root), scope=scope, rules=rules
    )


def lint_paths(
    paths: Sequence[Path],
    root: Path | None = None,
    rules: Sequence[Rule] | None = None,
) -> list[Violation]:
    """Lint every python file under ``paths``."""
    found: list[Violation] = []
    for file_path in iter_python_files(paths):
        found.extend(lint_file(file_path, root=root, rules=rules))
    return sorted(found)
