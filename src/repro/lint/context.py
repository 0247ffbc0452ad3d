"""Parsed-module and project context handed to lint rules.

A :class:`ModuleContext` bundles one source file with its AST, raw lines,
and suppression pragmas.  A :class:`Project` is the set of modules under
analysis plus cross-file lookups — currently the protocol-registration
module needed by REP006, which is located on disk relative to the module
being checked so that linting a single file still sees it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .pragmas import PragmaIndex


@dataclass(slots=True)
class ModuleContext:
    """One source file prepared for rule checks."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module | None
    syntax_error: SyntaxError | None
    pragmas: PragmaIndex
    lines: list[str]

    @classmethod
    def from_path(cls, path: Path, root: Path | None = None) -> ModuleContext:
        source = path.read_text(encoding="utf-8")
        relpath = _relativize(path, root)
        return cls.from_source(source, relpath=relpath, path=path)

    @classmethod
    def from_source(
        cls,
        source: str,
        relpath: str = "<string>.py",
        path: Path | None = None,
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
            path=path if path is not None else Path(relpath),
            relpath=relpath,
            source=source,
            tree=tree,
            syntax_error=error,
            pragmas=PragmaIndex.from_source(source),
            lines=source.splitlines(),
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

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def _relativize(path: Path, root: Path | None) -> str:
    resolved = path.resolve()
    base = (root or Path.cwd()).resolve()
    try:
        return resolved.relative_to(base).as_posix()
    except ValueError:
        return path.as_posix()


#: Location of the protocol-registration module inside the ``repro``
#: package — the cross-file anchor for REP006.
REGISTRATION_MODULE = ("harness", "protocols.py")


@dataclass(slots=True)
class Project:
    """All modules under analysis, plus cross-file lookups for rules."""

    modules: list[ModuleContext] = field(default_factory=list)
    _registration_cache: dict[Path, str | None] = field(default_factory=dict)

    def registration_source(self, module: ModuleContext) -> str | None:
        """Source of ``repro/harness/protocols.py`` for *module*'s package.

        Walks up from the module's on-disk location to the enclosing
        ``repro`` directory and reads the registration module from disk,
        so single-file invocations still get the cross-file REP006 check.
        Returns ``None`` when no registration module exists (e.g. test
        fixture trees), in which case REP006 falls back to requiring
        in-module registration.
        """
        repro_root = _find_repro_root(module.path)
        if repro_root is None:
            return None
        if repro_root not in self._registration_cache:
            candidate = repro_root.joinpath(*REGISTRATION_MODULE)
            try:
                self._registration_cache[repro_root] = candidate.read_text(
                    encoding="utf-8"
                )
            except OSError:
                self._registration_cache[repro_root] = None
        return self._registration_cache[repro_root]


def _find_repro_root(path: Path) -> Path | None:
    for parent in path.resolve().parents:
        if parent.name == "repro":
            return parent
    return None
