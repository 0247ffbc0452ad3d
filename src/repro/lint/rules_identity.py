"""Cell-identity rule: REP009 (hand-rolled cell identity).

The fabric's content-addressed cache keys every cell by the SHA-256
digest of its canonical identity (:class:`repro.fabric.CellId`).  Any
code that re-derives that identity by hand — a tuple of identity fields,
or ``str(options)`` / ``json.dumps(options)`` as a dictionary key — is a
second recipe that will drift from the digest the moment a field is
added, reordered, or re-canonicalized, silently splitting the cache.

REP009 keeps ``CellId`` the single recipe: inside the fabric and the
campaign/CLI layers that feed it, cell identity must be built via
``CellId.of`` / ``CellId.make`` / ``CellId.from_record`` and compared via
``.digest`` or the ``CellId`` value itself.  ``repro/fabric/digest.py``
is the designated implementation and is exempt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import fields

from ..fabric.digest import CellId
from .context import ModuleContext, Project
from .findings import Finding
from .rules import Rule, dotted_chain, register_rule

#: The cell-identity components, read off the one place that states them.
_CELL_FIELDS = frozenset(spec.name for spec in fields(CellId))

#: Option mappings whose stringification must go through canonical_json.
_OPTION_NAMES = frozenset(
    name for name in _CELL_FIELDS if name.endswith("options")
)

#: Where cell identity is produced or consumed.
_SCOPE_DIRS = ("repro/fabric",)
_SCOPE_FILES = ("repro/analysis/campaign.py", "repro/cli.py")

#: The one module allowed to spell the recipe out.
_DESIGNATED_IMPLEMENTATION = "repro/fabric/digest.py"


def _identity_field_of(node: ast.expr) -> str | None:
    """The identity field a single expression reads, if any.

    Matches ``record["protocol"]``-style constant subscripts and
    ``cell.protocol``-style attribute reads.
    """
    if isinstance(node, ast.Subscript):
        if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
            if node.slice.value in _CELL_FIELDS:
                return node.slice.value
        return None
    if isinstance(node, ast.Attribute) and node.attr in _CELL_FIELDS:
        return node.attr
    return None


def _names_option_mapping(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _OPTION_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _OPTION_NAMES
    if isinstance(node, ast.Subscript):
        return (
            isinstance(node.slice, ast.Constant)
            and node.slice.value in _OPTION_NAMES
        )
    return False


@register_rule
class HandRolledCellIdentity(Rule):
    """REP009: cell identity derived outside CellId."""

    code = "REP009"
    name = "hand-rolled-cell-identity"
    summary = (
        "cell identity built from a field tuple or str(options) instead "
        "of CellId"
    )

    def applies_to(self, module: ModuleContext) -> bool:
        if module.tree is None:
            return False
        if module.endswith(_DESIGNATED_IMPLEMENTATION):
            return False
        return module.in_dirs(*_SCOPE_DIRS) or any(
            module.endswith(path) for path in _SCOPE_FILES
        )

    def check(self, module: ModuleContext, project: Project) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Tuple, ast.List)):
                yield from self._check_identity_tuple(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_stringified_options(module, node)

    def _check_identity_tuple(
        self, module: ModuleContext, node: ast.Tuple | ast.List
    ) -> Iterator[Finding]:
        fields = {
            field
            for element in node.elts
            if (field := _identity_field_of(element)) is not None
        }
        if len(fields) >= 3:
            listed = ", ".join(sorted(fields))
            yield self.finding(
                module,
                node,
                f"hand-rolled identity tuple over ({listed}); build a "
                "CellId (CellId.make / CellId.from_record) and key on it "
                "or its .digest so the recipe cannot drift from the cache",
            )

    def _check_stringified_options(
        self, module: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        chain = dotted_chain(node.func)
        if chain is None or not node.args:
            return
        callee = chain[-1]
        is_str = callee in {"str", "repr"} and len(chain) == 1
        is_dumps = callee == "dumps"
        if not (is_str or is_dumps):
            return
        if not _names_option_mapping(node.args[0]):
            return
        spelled = ".".join(chain)
        yield self.finding(
            module,
            node,
            f"{spelled}(...) over an options mapping is not canonical "
            "(dict order and whitespace leak into the key); use "
            "repro.fabric.canonical_json, or carry the whole CellId",
        )
