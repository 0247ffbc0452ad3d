"""Rule base class and the AST helpers rules share.

Each rule has a stable code (``REPxxx``), declares which modules it
applies to and yields :class:`~.findings.Finding` records; the engine
handles pragma suppression, so rules stay pure.  The rules themselves
live in :mod:`.rules_determinism`.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from collections.abc import Iterator
from typing import ClassVar

from .context import ModuleContext
from .findings import Finding


class Rule(ABC):
    """One lint check with a stable ``REPxxx`` code."""

    code: ClassVar[str]
    name: ClassVar[str]
    summary: ClassVar[str]

    def applies_to(self, module: ModuleContext) -> bool:
        return module.tree is not None

    @abstractmethod
    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for *module*; must not mutate it."""

    def finding(
        self,
        module: ModuleContext,
        node: ast.AST,
        message: str,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=module.relpath,
            line=line,
            col=col,
            code=self.code,
            message=message,
        )


def dotted_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` → ``["a", "b", "c"]``; None when the root is not a Name.

    Shared helper for rules that match attribute access on imported
    modules (``random.shuffle``, ``time.time``, ``datetime.datetime.now``).
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return parts
    return None


def module_aliases(tree: ast.Module, module_name: str) -> set[str]:
    """Local names bound to ``import module_name`` (honouring ``as``)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module_name or alias.name.startswith(
                    module_name + "."
                ):
                    aliases.add((alias.asname or alias.name).split(".")[0])
    return aliases


def from_imports(tree: ast.Module, module_name: str) -> dict[str, ast.ImportFrom]:
    """Names bound by ``from module_name import x [as y]`` → binding node."""
    bound: dict[str, ast.ImportFrom] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module_name:
            for alias in node.names:
                bound[alias.asname or alias.name] = node
    return bound
