"""repro.lint — determinism static analysis.

A small AST-based linter encoding the repo's reproducibility contract as
checkable rules (``REP001``–``REP003``; the retired codes and the tests
that replaced them are listed in ``docs/lint.md``): metered randomness,
no ambient entropy, order-stable iteration.  See ``docs/lint.md`` for
the rule catalog and suppression policy.

Run it as ``python -m repro.lint [paths]``; use programmatically via
:func:`lint_paths` / :func:`lint_source`.
"""

from .context import ModuleContext
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
from .rules import Rule
from .rules_determinism import all_rules

__all__ = [
    "PARSE_ERROR_CODE",
    "Finding",
    "LintReport",
    "ModuleContext",
    "PragmaIndex",
    "Rule",
    "all_rules",
    "collect_files",
    "lint_modules",
    "lint_paths",
    "lint_source",
]
