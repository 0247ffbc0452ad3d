"""ExecutionRecipe: the serializable identity of one engine execution.

An execution of the synchronous engine is a deterministic function of three
things: the protocol (name + parameters + inputs), the seeds that derive
every process's random source, and the adversary's action sequence.  A
recipe captures exactly those — nothing about the *outcome* is needed to
re-run it, but the recipe also carries an expected fingerprint (the full
:func:`repro.runtime.result_to_dict` payload of the recorded run, or the
invariant violation the run tripped) so a replay can verify itself.

Recipes are plain JSON artifacts (:func:`recipe_payload` /
:func:`recipe_from_payload`), schema-tagged like every payload written by
:mod:`repro.runtime.serialization`.  They are what the property battery
and failing campaign cells save when a run violates an invariant, what the
shrinker minimizes, and what ``python -m repro.cli replay`` consumes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Mapping, Sequence
from typing import Any

from ..harness import ExecutionConfig
from ..runtime.network import canonical_omissions
from ..runtime.serialization import SCHEMA_VERSION, check_schema


@dataclass(frozen=True)
class RecordedAction:
    """One round's validated adversary action, as data.

    ``corrupt`` holds only the pids *newly* corrupted this round (the
    cumulative faulty set is implied by the prefix); ``omit`` holds the
    flat message indices omitted, in the canonical sorted/de-duplicated
    form of :func:`repro.runtime.canonical_omissions` — the batch's flat
    copy order, which the delivery layer and its reference oracle share.
    """

    round: int
    corrupt: tuple[int, ...] = ()
    omit: tuple[int, ...] = ()


@dataclass(frozen=True)
class ExecutionRecipe:
    """Everything needed to re-run one harness execution exactly.

    ``config`` is the recorded run's :class:`~repro.harness.ExecutionConfig`
    with its transport pinned by name.  The transport is provenance, not a
    replay input: replay always runs
    in-process — a TCP-recorded schedule (including transport crash
    faults, which the recorder sees as ordinary corruptions + omissions)
    deterministically reproduces in a single interpreter, which is the
    cross-transport equivalence guarantee.

    ``expected`` is the recorded run's full result fingerprint
    (:func:`repro.runtime.result_to_dict`) when the run completed;
    ``expected_failure`` describes the invariant violation when it did
    not.  Exactly one of the two is normally set; both may be ``None``
    for a hand-written recipe.
    """

    config: ExecutionConfig
    actions: tuple[RecordedAction, ...] = ()
    expected: Mapping[str, Any] | None = None
    expected_failure: Mapping[str, Any] | None = None
    note: str = ""

    # ------------------------------------------------------------------
    def with_actions(
        self, actions: Sequence[RecordedAction]
    ) -> ExecutionRecipe:
        """Copy of this recipe with a different adversary schedule."""
        return dataclasses.replace(self, actions=tuple(actions))

    def total_corruptions(self) -> int:
        return sum(len(action.corrupt) for action in self.actions)

    def total_omissions(self) -> int:
        return sum(len(action.omit) for action in self.actions)

    @property
    def failing(self) -> bool:
        """Whether this recipe records an invariant-violating run."""
        return self.expected_failure is not None


# ----------------------------------------------------------------------
# JSON payloads
# ----------------------------------------------------------------------
def recipe_payload(recipe: ExecutionRecipe) -> dict[str, Any]:
    """Serialize a recipe to JSON-safe primitives (schema-tagged).

    The config's keys sit flat beside the recipe's own, as they always
    have.
    """
    return {
        "schema": SCHEMA_VERSION,
        "kind": "execution-recipe",
        **recipe.config.payload(),
        "actions": [
            {
                "round": action.round,
                "corrupt": sorted(action.corrupt),
                "omit": list(canonical_omissions(action.omit)),
            }
            for action in recipe.actions
        ],
        "expected": (
            dict(recipe.expected) if recipe.expected is not None else None
        ),
        "expected_failure": (
            dict(recipe.expected_failure)
            if recipe.expected_failure is not None
            else None
        ),
        "note": recipe.note,
    }


def recipe_from_payload(data: Mapping[str, Any]) -> ExecutionRecipe:
    """Rebuild a recipe written by :func:`recipe_payload`.

    Rejects unknown schema versions and non-recipe payloads with
    ``ValueError`` before touching any field.  The ``"multicast"`` and
    ``"columnar"`` keys older writers emitted are accepted and ignored:
    the engine has one send and one delivery path, so they select
    nothing.
    A recipe that names a round model other than lockstep is refused
    (:meth:`~repro.harness.ExecutionConfig.from_payload`).
    """
    check_schema(dict(data), "recipe")
    kind = data.get("kind")
    if kind != "execution-recipe":
        raise ValueError(
            f"not an execution recipe: payload kind is {kind!r}"
        )
    return ExecutionRecipe(
        config=ExecutionConfig.from_payload(data),
        actions=tuple(
            RecordedAction(
                round=entry["round"],
                corrupt=tuple(entry.get("corrupt", ())),
                # Recipes written before canonicalization may carry
                # duplicate indices; normalize on read so strict replay
                # sees the schedule the engine actually applied.
                omit=canonical_omissions(entry.get("omit", ())),
            )
            for entry in data.get("actions", ())
        ),
        expected=data.get("expected"),
        expected_failure=data.get("expected_failure"),
        note=data.get("note", ""),
    )


def save_recipe(recipe: ExecutionRecipe, path: str | Path) -> Path:
    """Write a recipe as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(recipe_payload(recipe), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def save_failure(
    recipe: ExecutionRecipe, directory: str | Path, stem: str
) -> Path:
    """Save a failing recipe as ``<stem>-<digest>.json`` under *directory*:
    12 hex digits of the SHA-256 of its config's canonical payload, so
    runs differing anywhere in their config never share a file."""
    canonical = json.dumps(recipe.config.payload(), sort_keys=True)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    return save_recipe(recipe, Path(directory) / f"{stem}-{digest}.json")


def load_recipe(path: str | Path) -> ExecutionRecipe:
    """Read a recipe written by :func:`save_recipe`."""
    return recipe_from_payload(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )
