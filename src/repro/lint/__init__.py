"""repro.lint — determinism static analysis.

A small AST-based linter encoding the repo's reproducibility contract as
checkable rules (``REP001``–``REP003``, ``REP005``, ``REP007``; the retired
codes and the tests that replaced them are listed in ``docs/lint.md``):
metered randomness, no ambient entropy, order-stable iteration, adversary
purity, and no per-copy ``Message`` construction in engine loops.  See
``docs/lint.md`` for the rule catalog and suppression policy.

Run it as ``python -m repro.lint [paths]``; use programmatically via
:func:`lint_paths` / :func:`lint_source`.
"""

from .context import ModuleContext, Project
from .engine import (
    PARSE_ERROR_CODE,
    LintReport,
    collect_files,
    lint_modules,
    lint_paths,
    lint_source,
)
from .findings import Finding
from .pragmas import PragmaIndex
from .rules import Rule, all_rules, register_rule, rule_for

__all__ = [
    "PARSE_ERROR_CODE",
    "Finding",
    "LintReport",
    "ModuleContext",
    "PragmaIndex",
    "Project",
    "Rule",
    "all_rules",
    "collect_files",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "register_rule",
    "rule_for",
]
