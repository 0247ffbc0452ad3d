"""Lint engine: file collection, rule dispatch and pragma filtering.

The engine is deterministic by construction — files are walked in sorted
order and findings are sorted by position — so two runs over the same
tree produce byte-identical reports (the linter holds itself to the
repo's own reproducibility bar).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .context import ModuleContext
from .findings import Finding
from .rules import Rule
from .rules_determinism import all_rules

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})

#: Code used for files that fail to parse; suppressible like any rule.
PARSE_ERROR_CODE = "REP000"


@dataclass(slots=True)
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def collect_files(paths: Sequence[Path | str]) -> list[Path]:
    """Expand *paths* to a sorted, de-duplicated list of ``.py`` files."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(file.parts):
                    seen.add(file)
        elif path.suffix == ".py":
            seen.add(path)
    return sorted(seen)


def lint_modules(
    modules: Iterable[ModuleContext],
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Run *rules* over prepared modules; the core of every entry point."""
    active = list(rules) if rules is not None else all_rules()
    modules = list(modules)
    findings: list[Finding] = []
    for module in modules:
        raw: list[Finding] = []
        if module.syntax_error is not None:
            error = module.syntax_error
            raw.append(
                Finding(
                    path=module.relpath,
                    line=error.lineno or 1,
                    col=(error.offset or 1) - 1,
                    code=PARSE_ERROR_CODE,
                    message=f"file does not parse: {error.msg}",
                )
            )
        else:
            for rule in active:
                if rule.applies_to(module):
                    raw.extend(rule.check(module))
        findings.extend(
            finding
            for finding in raw
            if not module.pragmas.suppresses(finding.code, finding.line)
        )
    findings.sort(key=Finding.sort_key)
    return LintReport(findings=findings, files_checked=len(modules))


def lint_paths(
    paths: Sequence[Path | str],
    root: Path | None = None,
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Lint every ``.py`` file reachable from *paths*."""
    files = collect_files(paths)
    modules = [ModuleContext.from_path(file, root=root) for file in files]
    return lint_modules(modules, rules=rules)


def lint_source(
    source: str,
    relpath: str = "module.py",
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint a source string as if it lived at *relpath* (test helper)."""
    module = ModuleContext.from_source(source, relpath=relpath)
    return lint_modules([module], rules=rules).findings
