"""repro.fabric — cell identity and the content-addressed cell store.

The two things every sweep uses:

* :class:`CellId` (``digest.py``): the canonical SHA-256 identity of one
  grid cell — journal resume key, cache key and report grouping handle;
* :class:`CampaignCache` (``store.py``): every finished cell lives under
  its digest, published atomically and verified on read, so identical
  cells are never recomputed across campaigns or CLI invocations.

Executing the cells a cache cannot serve is ``run_campaign``'s job
(``repro.analysis.campaign``).  See docs/fabric.md for the CAS layout and
the digest recipe.
"""

from .digest import CellId, canonical_json
from .store import CacheStats, CampaignCache, open_cache

__all__ = [
    "CellId",
    "CacheStats",
    "CampaignCache",
    "canonical_json",
    "open_cache",
]
