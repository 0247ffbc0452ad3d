"""Directory claims: multi-host sweep coordination through the cache.

The fabric's cross-host story deliberately has no server.  Hosts share one
cache root (any shared filesystem — NFS, a synced directory, a bind
mount); the content-addressed store is the result channel, and this module
adds the *claim* channel: a lease directory where each host atomically
claims the cells it is about to compute, so N hosts pointed at the same
spec partition the grid among themselves without talking to each other.

Protocol per cell (all operations are single-file atomic):

1. ``claim`` — ``O_CREAT | O_EXCL`` create of ``claims/<digest>.json``
   naming the owner.  Exactly one host wins; losers treat the cell as
   someone else's and poll the store for its result instead.
2. ``release`` — unlink after the result is published to the store.
3. expiry — a claim older than ``lease_seconds`` (by file mtime) marks a
   dead host; ``reclaim`` atomically replaces it, and the reclaiming host
   recomputes the cell locally.  Idempotent results make double-compute
   after a badly-timed expiry harmless: both hosts publish identical
   entries.

:func:`await_cells` is the read side used by ``run_campaign``: poll the
store for cells other hosts claimed, returning early cells as they land
and handing back abandoned cells (stale or vanished claims with no
result) for local recomputation.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable
from typing import Any

from .digest import CellId
from .store import CampaignCache

__all__ = ["DirectoryClaims", "await_cells"]


@dataclass
class DirectoryClaims:
    """Atomic per-cell leases under ``root`` (one file per claimed cell)."""

    root: Path
    owner: str | None = None
    lease_seconds: float = 3600.0
    claimed: set[str] = field(default_factory=set, init=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if self.owner is None:
            self.owner = f"{socket.gethostname()}:{os.getpid()}"

    def _path(self, cell: CellId) -> Path:
        return self.root / f"{cell.digest}.json"

    def _lease_payload(self) -> str:
        return json.dumps({"owner": self.owner}, sort_keys=True)

    # ------------------------------------------------------------------
    def claim(self, cell: CellId) -> bool:
        """Try to claim ``cell``; True iff this host now owns it."""
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(
                self._path(cell), os.O_WRONLY | os.O_CREAT | os.O_EXCL
            )
        except FileExistsError:
            return False
        try:
            os.write(fd, self._lease_payload().encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        self.claimed.add(cell.digest)
        return True

    def release(self, cell: CellId) -> None:
        """Drop this host's claim (no-op when already gone)."""
        try:
            self._path(cell).unlink()
        except FileNotFoundError:
            pass
        self.claimed.discard(cell.digest)

    def owner_of(self, cell: CellId) -> str | None:
        """The claim's recorded owner, or ``None`` when unclaimed."""
        try:
            data = json.loads(
                self._path(cell).read_text(encoding="utf-8") or "{}"
            )
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        return data.get("owner")

    def is_claimed(self, cell: CellId) -> bool:
        return self._path(cell).exists()

    def is_stale(self, cell: CellId) -> bool:
        """Whether the claim's lease has expired (file mtime too old)."""
        try:
            age = time.time() - self._path(cell).stat().st_mtime
        except FileNotFoundError:
            return False
        return age > self.lease_seconds

    def reclaim(self, cell: CellId) -> bool:
        """Take over a stale claim atomically; True iff we now own it."""
        if not self.is_stale(cell):
            return False
        path = self._path(cell)
        tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
        tmp.write_text(self._lease_payload(), encoding="utf-8")
        os.replace(tmp, path)
        self.claimed.add(cell.digest)
        return True

    def release_all(self) -> None:
        """Best-effort cleanup of every claim this instance took."""
        for digest in sorted(self.claimed):
            try:
                (self.root / f"{digest}.json").unlink()
            except FileNotFoundError:
                pass
        self.claimed.clear()


def await_cells(
    cache: CampaignCache,
    cells: Iterable[tuple[Any, CellId]],
    claims: DirectoryClaims,
    poll_seconds: float = 0.2,
    timeout_seconds: float | None = None,
) -> tuple[dict[Any, dict[str, Any]], list[tuple[Any, CellId]]]:
    """Wait for other hosts' cells; return ``(found, abandoned)``.

    ``cells`` pairs an opaque handle (the grid coordinates) with the cell
    identity.  A cell is *found* when its entry lands in the store, and
    *abandoned* when its claim goes stale (dead host) or vanishes without
    a result — the caller recomputes those locally.  ``timeout_seconds``
    bounds the total wait; on timeout everything still missing is treated
    as abandoned.
    """
    waiting = list(cells)
    found: dict[Any, dict[str, Any]] = {}
    abandoned: list[tuple[Any, CellId]] = []
    deadline = (
        time.monotonic() + timeout_seconds
        if timeout_seconds is not None
        else None
    )
    while waiting:
        still: list[tuple[Any, CellId]] = []
        for handle, cell in waiting:
            # contains() first: polling must not skew the cache's hit/miss
            # accounting, which reports *local* lookup behaviour.
            record = cache.get(cell) if cache.contains(cell) else None
            if record is not None:
                found[handle] = record
            elif claims.is_stale(cell) or not claims.is_claimed(cell):
                abandoned.append((handle, cell))
            else:
                still.append((handle, cell))
        waiting = still
        if not waiting:
            break
        if deadline is not None and time.monotonic() >= deadline:
            abandoned.extend(waiting)
            break
        time.sleep(poll_seconds)
    return found, abandoned
