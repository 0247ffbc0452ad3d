"""Suppression pragmas: ``# repro-lint: disable=REP001[,REP002]``.

Two forms are recognised:

* trailing a statement — suppresses the named rules on that line only::

      net.faulty.add(0)  # repro-lint: disable=REP005

* ``disable-file`` anywhere in the file — suppresses the named rules for
  the whole module::

      # repro-lint: disable-file=REP003

``disable=all`` suppresses every rule.  Unknown codes are tolerated (a
pragma for a rule that later lands should not be a syntax error), but the
engine can surface them for auditing via :meth:`PragmaIndex.codes_used`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-file)?)\s*=\s*(?P<codes>[A-Za-z0-9_,\s]+)"
)

ALL = "all"


def _parse_codes(raw: str) -> frozenset[str]:
    return frozenset(
        code.strip().upper() if code.strip().lower() != ALL else ALL
        for code in raw.split(",")
        if code.strip()
    )


@dataclass(slots=True)
class PragmaIndex:
    """Per-module view of every suppression pragma in a source file."""

    line_disables: dict[int, frozenset[str]] = field(default_factory=dict)
    file_disables: frozenset[str] = frozenset()

    @classmethod
    def from_source(cls, source: str) -> PragmaIndex:
        line_disables: dict[int, frozenset[str]] = {}
        file_disables: frozenset[str] = frozenset()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            codes = _parse_codes(match.group("codes"))
            if not codes:
                continue
            if match.group("kind") == "disable-file":
                file_disables |= codes
            else:
                line_disables[lineno] = line_disables.get(lineno, frozenset()) | codes
        return cls(line_disables=line_disables, file_disables=file_disables)

    def suppresses(self, code: str, line: int) -> bool:
        if ALL in self.file_disables or code in self.file_disables:
            return True
        at_line = self.line_disables.get(line)
        if at_line is None:
            return False
        return ALL in at_line or code in at_line

    def codes_used(self) -> frozenset[str]:
        used = set(self.file_disables)
        for codes in self.line_disables.values():
            used |= codes
        return frozenset(used)
