"""Per-file analysis context: source, scope, imports, suppressions.

The context is built once per file and shared by every rule, so the
import-resolution and comment-scanning passes run once, not per rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import PurePosixPath

#: File scopes the rules target. ``src`` is library code (the simulation
#: itself); ``tests``/``benchmarks``/``examples`` are harness code where a
#: different (looser) subset of the invariants applies.
SCOPES = ("src", "tests", "benchmarks", "examples")

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_*]+(?:\s*,\s*[A-Za-z0-9_*]+)*)"
)


def classify_scope(path: str) -> str:
    """Classify a file path into one of :data:`SCOPES` by its directories."""
    parts = PurePosixPath(path.replace("\\", "/")).parts
    for scope in ("tests", "benchmarks", "examples"):
        if scope in parts:
            return scope
    return "src"


def _parse_suppressions(source: str) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    """Extract ``# repro-lint: disable=...`` comments.

    Returns ``(per_line, file_wide)`` where ``per_line`` maps a 1-based line
    number to the codes disabled on that line (``*`` disables every rule)
    and ``file_wide`` holds codes from ``disable-file=`` comments anywhere
    in the file.
    """
    per_line: dict[int, frozenset[str]] = {}
    file_wide: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            codes = frozenset(
                c.strip().upper() if c.strip() != "*" else "*"
                for c in match.group("codes").split(",")
            )
            if match.group(1) == "disable-file":
                file_wide.update(codes)
            else:
                line = tok.start[0]
                per_line[line] = per_line.get(line, frozenset()) | codes
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable files surface as REPRO000 from the analyzer instead.
        pass
    return per_line, frozenset(file_wide)


class ImportTable:
    """Maps local names to the qualified module paths they were bound from.

    Built from every ``import``/``from ... import`` statement in the module
    (at any nesting level), then used to canonicalise call targets:
    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    whether numpy was imported as ``np``, ``numpy``, or via
    ``from numpy.random import default_rng``.
    """

    def __init__(self, tree: ast.AST) -> None:
        self._names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self._names[alias.asname] = alias.name
                    else:
                        # ``import a.b.c`` binds the top-level name ``a``.
                        top = alias.name.split(".", 1)[0]
                        self._names[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports never hit the banned sets
                for alias in node.names:
                    local = alias.asname if alias.asname is not None else alias.name
                    self._names[local] = f"{node.module}.{alias.name}"

    def resolve(self, expr: ast.expr) -> str | None:
        """Qualified dotted name of ``expr``, or None if not name-like.

        Bare names that were never imported resolve to themselves, so
        builtins (``open``, ``hash``, ``input``) keep their plain name.
        """
        parts: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = self._names.get(parts[0], parts[0])
        return ".".join([root, *parts[1:]])


@dataclass
class FileContext:
    """Everything a rule needs to analyse one file."""

    path: str
    source: str
    tree: ast.Module
    scope: str
    imports: ImportTable
    lines: list[str] = field(default_factory=list)
    _suppress_lines: dict[int, frozenset[str]] = field(default_factory=dict)
    _suppress_file: frozenset[str] = frozenset()

    @classmethod
    def build(cls, path: str, source: str, scope: str | None = None) -> "FileContext":
        """Parse ``source`` and build the shared per-file context.

        Raises ``SyntaxError`` if the file does not parse; the analyzer
        converts that into a REPRO000 violation.
        """
        tree = ast.parse(source, filename=path)
        per_line, file_wide = _parse_suppressions(source)
        return cls(
            path=path,
            source=source,
            tree=tree,
            scope=scope if scope is not None else classify_scope(path),
            imports=ImportTable(tree),
            lines=source.splitlines(),
            _suppress_lines=per_line,
            _suppress_file=file_wide,
        )

    def line_text(self, line: int) -> str:
        """Text of the 1-based ``line`` ('' if out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def suppressed(self, line: int, code: str) -> bool:
        """Is ``code`` disabled on ``line`` (or file-wide)?"""
        if "*" in self._suppress_file or code in self._suppress_file:
            return True
        codes = self._suppress_lines.get(line)
        if codes is None:
            return False
        return "*" in codes or code in codes
