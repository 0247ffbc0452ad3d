"""Command line for the repro linter: ``python -m repro.lint [paths]``.

Exit codes: 0 — no findings; 1 — findings (or a file failed to parse);
2 — usage error.  Every finding fails the run; the only waiver is a line
pragma with its reason (docs/lint.md).  ``--format github`` emits workflow annotation
commands so CI failures land on the offending lines in the diff view.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import LintReport, lint_paths
from .rules_determinism import all_rules

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Determinism checks for the repro codebase."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to lint (default: the repo's "
            f"{'/'.join(DEFAULT_PATHS)} trees that exist)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list rule codes and exit",
    )
    return parser


def _default_paths() -> list[str]:
    present = [path for path in DEFAULT_PATHS if Path(path).is_dir()]
    return present or ["."]


def _format_text(report: LintReport) -> str:
    lines = [
        f"{finding.path}:{finding.line}:{finding.col + 1}: "
        f"{finding.code} {finding.message}"
        for finding in report.findings
    ]
    lines.append(
        f"{report.files_checked} files checked: "
        f"{len(report.findings)} finding(s)"
    )
    return "\n".join(lines)


def _format_github(report: LintReport) -> str:
    lines = []
    for finding in report.findings:
        message = finding.message.replace("\n", " ")
        lines.append(
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.col + 1},title={finding.code}::{message}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return 0

    paths = args.paths or _default_paths()
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    report = lint_paths(paths)

    if args.format == "text":
        print(_format_text(report))
    else:
        output = _format_github(report)
        if output:
            print(output)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
