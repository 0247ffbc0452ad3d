"""Suppression pragmas: ``# repro-lint: disable=REP001[,REP002]``.

One form is recognised — trailing a statement, it suppresses the named
rules on that line only::

    for x in s:  # repro-lint: disable=REP003 (order unused)

Unknown codes are tolerated (a pragma for a rule that later lands should
not be a syntax error).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable\s*=\s*(?P<codes>[A-Za-z0-9_,\s]+)"
)


@dataclass(slots=True)
class PragmaIndex:
    """Per-module view of every suppression pragma in a source file."""

    line_disables: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str) -> PragmaIndex:
        line_disables: dict[int, frozenset[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            codes = frozenset(
                code.strip().upper()
                for code in match.group("codes").split(",")
                if code.strip()
            )
            if codes:
                line_disables[lineno] = codes
        return cls(line_disables=line_disables)

    def suppresses(self, code: str, line: int) -> bool:
        return code in self.line_disables.get(line, ())
