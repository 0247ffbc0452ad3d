"""Finding records produced by lint rules.

A :class:`Finding` pins a rule violation to a file position and carries a
*fingerprint* — a stable hash of ``(path, code, normalized source line)``,
so a consumer of the JSON report can follow one finding across unrelated
edits above it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    """Project-relative POSIX path of the offending file."""

    line: int
    """1-based line number."""

    col: int
    """0-based column offset (as reported by :mod:`ast`)."""

    code: str
    """Rule code, e.g. ``"REP003"``."""

    message: str
    """Human-readable description of the violation."""

    source_line: str = ""
    """Verbatim text of the offending line (used for fingerprinting)."""

    @property
    def fingerprint(self) -> str:
        """Stable identity of the finding, independent of line numbers.

        Whitespace inside the source line is collapsed so reindentation
        alone does not change it.
        """
        normalized = " ".join(self.source_line.split())
        digest = hashlib.blake2b(
            f"{self.path}::{self.code}::{normalized}".encode(),
            digest_size=8,
        )
        return digest.hexdigest()

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)
