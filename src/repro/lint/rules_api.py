"""API-surface rule: REP008 (direct engine construction).

REP008 keeps the harness the single front door to the engine: library
and example code that constructs ``SyncNetwork(...)`` directly bypasses
the registry's model axis, option normalization, and record/replay
surface.  The harness itself, the engine's own package, and the test and
benchmark trees are designated fixtures; anything else either routes
through :func:`repro.harness.execute` or carries an explicit
``# repro-lint: disable=REP008`` pragma naming itself a fixture.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .context import ModuleContext, Project
from .findings import Finding
from .rules import Rule, dotted_chain, register_rule

#: Designated fixtures: trees whose direct engine construction is the
#: point — the harness front door, the engine's own package, and the
#: test/benchmark corpora that exercise engine seams on purpose.
_REP008_FIXTURE_DIRS = (
    "repro/harness",
    "repro/runtime",
    "tests",
    "benchmarks",
)


@register_rule
class DirectEngineConstruction(Rule):
    """REP008: library/example code constructs SyncNetwork directly."""

    code = "REP008"
    name = "direct-engine-construction"
    summary = (
        "SyncNetwork(...) constructed outside harness/designated fixtures"
    )

    def applies_to(self, module: ModuleContext) -> bool:
        if module.tree is None:
            return False
        return not module.in_dirs(*_REP008_FIXTURE_DIRS)

    def check(self, module: ModuleContext, project: Project) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if chain is None or chain[-1] != "SyncNetwork":
                continue
            yield self.finding(
                module,
                node,
                "direct SyncNetwork(...) construction bypasses the harness "
                "(model axis, option normalization, record/replay); route "
                "through repro.harness.execute(), or mark a designated "
                "fixture with `# repro-lint: disable=REP008`",
            )
