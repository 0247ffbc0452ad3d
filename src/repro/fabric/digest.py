"""CellId: the canonical, content-addressed identity of one sweep cell.

Every campaign cell — one protocol execution at one grid coordinate — is a
pure function of its identity: ``(protocol, n, t, adversary, seed,
options, engine capability, transport, transport options)``.  A
:class:`CellId` freezes exactly those components and derives a canonical
SHA-256 digest from them, which is the key under which the cell's record
lives in the content-addressed store (:mod:`repro.fabric.store`) — the one
store an interrupted sweep resumes from — and the grouping handle reports
use.

The digest recipe is deliberately boring so it can be recomputed anywhere:

1. mappings (``options``, ``transport_options``) are canonicalized to
   compact sorted-key JSON (the frozen dataclass stores the *string*,
   keeping the id hashable);
2. the nine identity components are assembled into one JSON object
   with sorted keys and no whitespace;
3. the digest is the lowercase hex SHA-256 of that object's UTF-8 bytes.

Two processes — or two hosts — that agree on the component values agree on
the digest, which is what makes cache entries portable across campaigns,
CLI invocations, and machines.

This module is the *only* place cell identity is derived; campaign and
fabric code everywhere else must go through :class:`CellId`
(``tests/data/golden-identities.json`` pins every digest).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..harness import ExecutionConfig

__all__ = ["CellId", "canonical_json"]


def canonical_json(value: Mapping[str, Any] | None) -> str:
    """Canonical compact JSON for an options mapping (``None`` → ``{}``)."""
    return json.dumps(dict(value or {}), sort_keys=True, separators=(",", ":"))


def _current_engine() -> str:
    from ..harness import capability_fingerprint

    return capability_fingerprint()


@dataclass(frozen=True)
class CellId:
    """Frozen identity of one sweep cell; hashable and digestible.

    A cell's identity is the named-axis view of the run's
    :class:`~repro.harness.ExecutionConfig` — ``protocol, n, seed, options,
    transport, transport_options`` — plus the three
    coordinates a config does not carry: the ``adversary`` name, the
    adversary-construction budget ``t`` (``spec.campaign_t(n, params)``;
    the run itself gets ``t=None`` so each protocol resolves its own
    budget — the tradeoff halves it internally) and the ``engine``
    capability fingerprint (``None`` resolves to the running engine's).
    See :meth:`of`.

    These nine fields are the only statement of the components:
    :meth:`make`, :meth:`from_record`, :meth:`payload` and
    :meth:`from_payload` all read ``dataclasses.fields(CellId)``.  The two
    ``*options`` components are stored as canonical JSON strings
    (:func:`canonical_json`), which keeps the id hashable; :meth:`make`
    accepts mappings.  ``transport is None`` means the built-in default —
    kept distinct from an explicit ``"inprocess"`` so records written by
    unpinned specs keep their exact cell identity.
    """

    protocol: str
    n: int
    adversary: str
    seed: int
    t: int | None = None
    options: str = "{}"
    engine: str | None = None
    transport: str | None = None
    transport_options: str = "{}"

    def __post_init__(self) -> None:
        if self.engine is None:
            object.__setattr__(self, "engine", _current_engine())

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def make(cls, **components: Any) -> CellId:
        """Build an id from plain values, canonicalizing option mappings."""
        return cls(
            **{
                name: canonical_json(value)
                if name.endswith("options")
                else value
                for name, value in components.items()
            }
        )

    @classmethod
    def of(
        cls, config: ExecutionConfig, *, adversary: str, t: int | None
    ) -> CellId:
        """Identity of the cell that runs *config* against *adversary*."""
        view = {
            spec.name: getattr(config, spec.name)
            for spec in fields(cls)
            if spec.name not in ("adversary", "t", "engine")
        }
        return cls.make(adversary=adversary, t=t, **view)

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> CellId | None:
        """The identity under which a finished record satisfies a cell.

        Tolerant of historical record shapes: a component the record
        does not carry takes its field default — empty options, the
        default transport, the *current* engine (such records were
        readable only by engines that would have produced them).
        Returns ``None`` when the mapping is not a cell record at all, or
        when it ran a round model other than lockstep (the cell re-runs).
        """
        if record.get("model", "lockstep") != "lockstep":
            return None
        try:
            return cls.make(
                **{
                    spec.name: record[spec.name]
                    for spec in fields(cls)
                    if spec.default is MISSING or spec.name in record
                }
            )
        except (KeyError, TypeError):
            return None

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> CellId:
        """Rebuild an id from :meth:`payload` (e.g. a CAS entry)."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})

    # ------------------------------------------------------------------
    # canonical forms
    # ------------------------------------------------------------------
    def payload(self) -> dict[str, Any]:
        """JSON-safe mapping of every identity component."""
        return asdict(self)

    @cached_property
    def digest(self) -> str:
        """Lowercase hex SHA-256 of the canonical identity JSON."""
        canon = json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    @property
    def short(self) -> str:
        """12-hex-character digest prefix for logs and filenames."""
        return self.digest[:12]

    def series_key(self) -> tuple[str, int, str]:
        """Per-(protocol, n, adversary) grouping handle for summaries.

        The seed axis is what summaries aggregate over, so the series key
        drops it (and everything downstream of it) while staying derived
        from the one identity type.
        """
        return (self.protocol, self.n, self.adversary)

    def __str__(self) -> str:
        return (
            f"{self.protocol}:n{self.n}:{self.adversary}:s{self.seed}"
            f":{self.short}"
        )
