"""Model-conformance rule: REP005 (adversary purity).

REP005 guards the omission model itself: the paper's adversary *observes*
the full-information view and *returns* an action; the engine is the only
component that mutates network state.  An adversary that writes through
its ``view``/``ctx`` argument silently bypasses budget validation and the
record/replay action log.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .context import ModuleContext, Project
from .findings import Finding
from .rules import Rule, dotted_chain, register_rule

#: In-place mutators on containers reachable from an adversary's view.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)
#: Attributes whose methods are exempt even when reached through a
#: parameter: drawing from ``ctx.rng`` is the sanctioned way to randomize.
_EXEMPT_ATTRS = frozenset({"rng", "random"})


def _root_name(node: ast.expr) -> str | None:
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def _passes_through(node: ast.expr, attr_names: frozenset[str]) -> bool:
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if isinstance(current, ast.Attribute) and current.attr in attr_names:
            return True
        current = current.value
    return False


@register_rule
class AdversaryPurity(Rule):
    """REP005: adversaries return actions; they never mutate the view."""

    code = "REP005"
    name = "adversary-purity"
    summary = "Adversary method mutates view/network state instead of returning an action"

    def check(self, module: ModuleContext, project: Project) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _subclasses_adversary(node):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleContext, node: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                yield from self._check_method(module, stmt)

    def _check_method(
        self, module: ModuleContext, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        params = {
            arg.arg
            for arg in method.args.posonlyargs
            + method.args.args
            + method.args.kwonlyargs
            if arg.arg not in {"self", "cls"}
        }
        if not params:
            return
        # Names bound by iterating something reachable from a parameter
        # (``for message in view.messages``) are tainted too.
        tainted = set(params)
        for node in ast.walk(method):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                root = _root_name(node.iter)
                if root in tainted and isinstance(node.target, ast.Name):
                    tainted.add(node.target.id)
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = _root_name(target)
                        if root in tainted:
                            yield self.finding(
                                module,
                                target,
                                f"adversary writes through `{root}` — return "
                                "an AdversaryAction instead of mutating the "
                                "view",
                            )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr not in _MUTATORS:
                    continue
                root = _root_name(node.func.value)
                if root not in tainted:
                    continue
                if _passes_through(node.func.value, _EXEMPT_ATTRS):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"adversary calls `.{node.func.attr}()` on state reached "
                    f"through `{root}` — return an AdversaryAction instead "
                    "of mutating the view",
                )

    def applies_to(self, module: ModuleContext) -> bool:
        return module.tree is not None


def _subclasses_adversary(node: ast.ClassDef) -> bool:
    for base in node.bases:
        chain = dotted_chain(base)
        if chain and chain[-1].endswith("Adversary"):
            return True
    return False
