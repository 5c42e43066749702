"""Command line interface: ``python -m repro.lint src tests benchmarks``.

Exit codes: 0 clean (or fully baselined), 1 violations found, 2 bad
usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.analyzer import lint_paths, select_rules
from repro.lint.baseline import Baseline
from repro.lint.rules import ALL_RULES
from repro.lint.violations import Violation

#: Default baseline location, relative to the invocation directory.
DEFAULT_BASELINE = Path("repro-lint.baseline")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism and simulation-safety analyzer for the "
            "xGFabric reproduction. Suppress a single line with "
            "`# repro-lint: disable=CODE[,CODE...]`."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=[Path("src"), Path("tests"), Path("benchmarks")],
        help="files or directories to scan (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write all current violations to the baseline file and exit 0",
    )
    parser.add_argument(
        "--justification",
        metavar="TEXT",
        help=(
            "justification comment stamped on entries written by "
            f"--write-baseline (default: {Baseline.DEFAULT_JUSTIFICATION!r})"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every violation, ignoring the baseline file",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print a per-code violation count summary",
    )
    return parser


def _list_rules() -> int:
    for rule in ALL_RULES:
        scopes = ",".join(sorted(rule.scopes))
        print(f"{rule.code}  {rule.name}  [scopes: {scopes}]")
        print(f"    {rule.rationale}")
        if rule.allow_suffixes:
            print(f"    allowlisted: {', '.join(rule.allow_suffixes)}")
    return 0


def _violation_json(violation: Violation) -> dict[str, object]:
    return {
        "path": violation.path,
        "line": violation.line,
        "col": violation.col,
        "code": violation.code,
        "message": violation.message,
        "line_text": violation.line_text,
        "fingerprint": violation.fingerprint(),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else ()
    try:
        rules = select_rules(select=select, ignore=ignore)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    missing = [p for p in args.paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(str(p) for p in missing)}")

    if args.justification is not None and not args.write_baseline:
        parser.error("--justification only makes sense with --write-baseline")

    violations = lint_paths(args.paths, rules=rules)

    if args.write_baseline:
        Baseline.from_violations(
            violations, justification=args.justification
        ).dump(args.baseline)
        print(
            f"wrote {len(violations)} entr{'y' if len(violations) == 1 else 'ies'} "
            f"to {args.baseline}"
        )
        return 0

    baseline = (
        Baseline() if args.no_baseline else Baseline.load(args.baseline)
    )
    fresh = [v for v in violations if not baseline.contains(v)]
    baselined = len(violations) - len(fresh)
    stale = baseline.stale_entries(violations)

    if args.format == "json":
        # One finding per line (JSON Lines) so CI can stream annotations;
        # summary/stale/drift notes stay on stderr, status in the exit code.
        for violation in fresh:
            print(json.dumps(_violation_json(violation), sort_keys=True))
        for entry in stale:
            print(
                f"note: stale baseline entry: {entry.format()}",
                file=sys.stderr,
            )
        return 1 if fresh else 0

    for violation in fresh:
        print(violation.format())

    if args.statistics and fresh:
        print()
        counts: dict[str, int] = {}
        for violation in fresh:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        for code in sorted(counts):
            print(f"{code}: {counts[code]}")

    if stale:
        print(
            f"note: {len(stale)} stale baseline entr"
            f"{'y' if len(stale) == 1 else 'ies'} no longer match anything "
            f"(prune from {args.baseline}):",
            file=sys.stderr,
        )
        for entry in stale:
            print(f"  {entry.format()}", file=sys.stderr)

    if fresh:
        suffix = f" ({baselined} baselined)" if baselined else ""
        print(
            f"\nfound {len(fresh)} violation{'s' if len(fresh) != 1 else ''}"
            f"{suffix}",
            file=sys.stderr,
        )
        return 1
    if baselined:
        print(f"clean ({baselined} baselined)", file=sys.stderr)
    return 0
