"""CampaignCache: an on-disk content-addressed store for sweep cells.

Layout (everything under one root directory, safe to share over NFS)::

    <root>/
      objects/<digest[:2]>/<digest>.json    one entry per cell identity
      objects/<digest[:2]>/<digest>.json.quarantine   corrupt entries, kept

An entry is a schema-tagged JSON object carrying the full cell identity
(:meth:`CellId.payload`) and the finished campaign record (an
invariant-violating cell's record names its saved
:class:`~repro.replay.ExecutionRecipe` file).

This is the one store a finished cell is served from: ``run_campaign``
publishes each cell as it finishes, so an interrupted sweep resumes by
running again against the same root.  Writes land in a
temp file in the destination directory, are flushed + fsynced, then
published with an atomic ``os.replace`` — concurrent writers racing on the
same cell each publish a complete entry and the last one wins; a reader
never observes a torn file.  Reads verify the entry end-to-end (JSON
parses, kind matches, the *stored identity re-digests to the filename*);
anything that fails verification is moved to a ``.quarantine`` sidecar and
reported as a miss, so a corrupted or truncated entry costs one recompute,
never a wrong answer.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..runtime.serialization import SCHEMA_VERSION
from .digest import CellId

__all__ = ["CacheStats", "CampaignCache", "ENTRY_KIND", "open_cache"]

ENTRY_KIND = "campaign-cell"

#: Process-local counter making temp names unique without wall-clock or
#: entropy reads (the pid disambiguates across processes).
_TMP_COUNTER = itertools.count()


@dataclass
class CacheStats:
    """Hit/miss/put accounting for one :class:`CampaignCache` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalid: int = 0  # entries quarantined after failing verification

    def as_dict(self) -> dict[str, int | float]:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "invalid": self.invalid,
            "hit_rate": (self.hits / lookups) if lookups else 1.0,
        }


@dataclass
class CampaignCache:
    """Content-addressed cell store rooted at ``root``."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def entry_path(self, cell: CellId) -> Path:
        digest = cell.digest
        return self.root / "objects" / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def get(self, cell: CellId) -> dict[str, Any] | None:
        """The cached record for ``cell``, or ``None`` on a (forced) miss."""
        entry = self._load_verified(cell)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry["record"]

    def _load_verified(self, cell: CellId) -> dict[str, Any] | None:
        """``cell``'s entry if it parses and verifies; a failed entry is
        moved to a ``.quarantine`` sidecar (kept for forensics, seen as a
        miss)."""
        path = self.entry_path(cell)
        try:
            data = path.read_text(encoding="utf-8")
        except (FileNotFoundError, NotADirectoryError):
            return None
        try:
            entry = json.loads(data)
            if entry.get("kind") != ENTRY_KIND:
                raise ValueError(f"not a cell entry: kind={entry.get('kind')!r}")
            stored = CellId.from_payload(entry["cell"])
            if stored.digest != cell.digest:
                raise ValueError(
                    f"identity re-digests to {stored.digest[:12]}, "
                    f"file claims {cell.digest[:12]}"
                )
            if not isinstance(entry.get("record"), dict):
                raise ValueError("entry carries no record")
        except (ValueError, KeyError, TypeError):
            try:
                os.replace(path, path.with_name(path.name + ".quarantine"))
            except OSError:
                pass
            self.stats.invalid += 1
            return None
        return entry

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def put(self, cell: CellId, record: dict[str, Any]) -> Path:
        """Publish ``record`` for ``cell``.

        Atomic: a temp file in the destination directory is fully written,
        flushed, and fsynced before an ``os.replace`` makes it visible, so
        racing writers each publish a complete entry (last writer wins —
        cells are pure functions of their identity, so the entries agree).
        """
        path = self.entry_path(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": SCHEMA_VERSION,
            "kind": ENTRY_KIND,
            "cell": cell.payload(),
            "digest": cell.digest,
            "record": record,
        }
        tmp = path.with_name(
            f".tmp-{os.getpid()}-{next(_TMP_COUNTER)}-{path.name}"
        )
        data = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(data + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self.stats.puts += 1
        return path


def open_cache(
    cache: CampaignCache | str | Path | None,
) -> CampaignCache | None:
    """Coerce a ``cache=`` argument — an instance, a directory path, or
    ``None`` for no cache — into a :class:`CampaignCache` (or ``None``)."""
    if cache is None or isinstance(cache, CampaignCache):
        return cache
    return CampaignCache(Path(cache))
