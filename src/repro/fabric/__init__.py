"""repro.fabric — the sharded, cached sweep fabric.

The campaign runner's execution substrate, grown from a single-box pool
into three cooperating pieces:

* a **content-addressed store** (:class:`CampaignCache`): every finished
  cell lives under the SHA-256 digest of its full identity
  (:class:`CellId`), so identical cells are never recomputed across
  campaigns, CLI invocations, or hosts;
* a **work-stealing dispatcher** (:class:`FabricDispatcher` /
  :class:`StealScheduler`): the grid is sharded across worker processes by
  estimated cost, and idle workers steal from stragglers' tails;
* **directory claims** (:class:`DirectoryClaims` /
  :func:`await_cells`): hosts sharing a cache root partition a grid among
  themselves through atomic claim files — no server, no configuration.

``query`` is the read-only front: resolve a spec against a cache and serve
hits instantly, reporting misses without executing anything.

See docs/fabric.md for the CAS layout, the digest recipe, the stealing
model, and the multi-host setup.
"""

from .digest import CellId, canonical_json
from .dispatch import (
    CellTask,
    FabricDispatcher,
    StealScheduler,
    estimated_cost,
)
from .query import CellStatus, QueryResult, open_cache, query
from .store import CacheStats, CampaignCache
from .claims import DirectoryClaims, await_cells

__all__ = [
    "CellId",
    "CellStatus",
    "CellTask",
    "CacheStats",
    "CampaignCache",
    "DirectoryClaims",
    "FabricDispatcher",
    "QueryResult",
    "StealScheduler",
    "await_cells",
    "canonical_json",
    "estimated_cost",
    "open_cache",
    "query",
]
