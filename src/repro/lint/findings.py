"""Finding records produced by lint rules: one rule violation pinned to a
file position."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    """POSIX path of the offending file, relative to the lint root."""

    line: int
    """1-based line number."""

    col: int
    """0-based column offset (as reported by :mod:`ast`)."""

    code: str
    """Rule code, e.g. ``"REP003"``."""

    message: str
    """Human-readable description of the violation."""

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)
