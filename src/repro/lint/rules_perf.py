"""Performance rules: REP007 (per-copy Message construction in hot loops).

The columnar delivery plan exists so that an all-to-all round moves O(n)
array rows, not O(n^2) ``Message`` objects.  That only holds if engine
code keeps multicast fan-out symbolic — offset ranges into the flat copy
order — and materializes concrete :class:`~repro.runtime.messages.Message`
views at the few designated points where a program or observer actually
reads one.  REP007 guards the invariant structurally: constructing
``Message(...)`` inside a loop or comprehension anywhere in
``repro/runtime`` is flagged unless the construction site is one of the
designated materialization points.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .context import ModuleContext, Project
from .findings import Finding
from .rules import Rule, register_rule

#: The whole message-model module is a materialization point: it owns the
#: ``Message`` type and the flat-expansion of ``Multicast`` records.
_EXEMPT_MODULE = "repro/runtime/messages.py"

#: Function-level materialization points elsewhere in the runtime: the
#: lazy view's cache fill and the reference object delivery loop.
_MATERIALIZATION_POINTS: dict[str, frozenset[str]] = {
    "repro/runtime/columnar.py": frozenset({"_materialize"}),
    "repro/runtime/delivery.py": frozenset({"_deliver_objects"}),
}

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@register_rule
class PerCopyMessageConstruction(Rule):
    """REP007: no per-copy ``Message(...)`` loops in the round engine.

    Within ``repro/runtime``, a ``Message(...)`` call under a loop or
    comprehension is per-copy work — O(copies) allocations where the
    columnar layout needs O(records) — unless it sits in a designated
    materialization point (``messages.py`` wholesale,
    ``columnar.py::_materialize``, ``delivery.py::_deliver_objects``).
    Queue a ``Multicast`` record or hand out a
    :class:`~repro.runtime.columnar.LazyMessageList` instead.
    """

    code = "REP007"
    name = "per-copy-message-construction"
    summary = (
        "per-copy Message(...) construction in an engine hot loop outside "
        "a designated materialization point"
    )

    def applies_to(self, module: ModuleContext) -> bool:
        if module.tree is None:
            return False
        return module.in_dirs("repro/runtime") and not module.endswith(
            _EXEMPT_MODULE
        )

    def check(self, module: ModuleContext, project: Project) -> Iterator[Finding]:
        assert module.tree is not None
        allowed: frozenset[str] = frozenset()
        for suffix, names in _MATERIALIZATION_POINTS.items():
            if module.endswith(suffix):
                allowed = names
                break
        for stmt in module.tree.body:
            yield from self._visit(module, stmt, allowed, 0)

    def _visit(
        self,
        module: ModuleContext,
        node: ast.AST,
        allowed: frozenset[str],
        loop_depth: int,
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in allowed:
                return
            for child in node.body:
                yield from self._visit(module, child, allowed, 0)
            return
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                yield from self._visit(module, child, allowed, 0)
            return
        if isinstance(node, _LOOPS):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                # The iterable is evaluated once, before the loop runs.
                yield from self._visit(module, node.iter, allowed, loop_depth)
                yield from self._visit(module, node.target, allowed, loop_depth)
            else:
                yield from self._visit(
                    module, node.test, allowed, loop_depth + 1
                )
            for child in node.body + node.orelse:
                yield from self._visit(module, child, allowed, loop_depth + 1)
            return
        if isinstance(node, _COMPREHENSIONS):
            for child in ast.iter_child_nodes(node):
                yield from self._visit(module, child, allowed, loop_depth + 1)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Message"
            and loop_depth > 0
        ):
            yield self.finding(
                module,
                node,
                "per-copy Message(...) constructed in an engine loop; keep "
                "fan-out symbolic (Multicast / flat offsets) and let a "
                "designated materialization point build concrete views",
            )
            # Still descend: nested calls may hide further constructions.
        for child in ast.iter_child_nodes(node):
            yield from self._visit(module, child, allowed, loop_depth)
