"""The parsed-module context handed to lint rules: a
:class:`ModuleContext` bundles one source file with its AST and
suppression pragmas.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from .pragmas import PragmaIndex


@dataclass(slots=True)
class ModuleContext:
    """One source file prepared for rule checks."""

    relpath: str
    source: str
    tree: ast.Module | None
    syntax_error: SyntaxError | None
    pragmas: PragmaIndex

    @classmethod
    def from_path(cls, path: Path, root: Path | None = None) -> ModuleContext:
        source = path.read_text(encoding="utf-8")
        return cls.from_source(source, relpath=_relativize(path, root))

    @classmethod
    def from_source(
        cls, source: str, relpath: str = "<string>.py"
    ) -> ModuleContext:
        tree: ast.Module | None
        error: SyntaxError | None
        try:
            tree = ast.parse(source, filename=relpath)
            error = None
        except SyntaxError as exc:
            tree = None
            error = exc
        return cls(
            relpath=relpath,
            source=source,
            tree=tree,
            syntax_error=error,
            pragmas=PragmaIndex.from_source(source),
        )

    def in_dirs(self, *parts: str) -> bool:
        """True when the module lives under any of the given path parts.

        ``parts`` are slash-separated fragments like ``"repro/runtime"``;
        a module matches when the fragment appears as a whole directory
        run inside its project-relative path.
        """
        haystack = f"/{self.relpath}"
        return any(f"/{part.strip('/')}/" in haystack for part in parts)

    def endswith(self, suffix: str) -> bool:
        return self.relpath.endswith(suffix)


def _relativize(path: Path, root: Path | None) -> str:
    resolved = path.resolve()
    base = (root or Path.cwd()).resolve()
    try:
        return resolved.relative_to(base).as_posix()
    except ValueError:
        return path.as_posix()

