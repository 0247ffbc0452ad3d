"""Delta-debugging shrinker for failing execution recipes.

A fuzzer-found invariant violation typically arrives wrapped in hundreds
of irrelevant adversary decisions.  :func:`shrink_recipe` minimizes the
schedule with three ddmin passes, re-validating every candidate by actual
replay (lenient, as for every failing recipe, so deleting a corruption
merely weakens the remaining omissions instead of making them illegal):

1. drop whole round-actions;
2. drop individual corruption entries (omissions held fixed);
3. drop individual omission indices (corruptions held fixed).

A candidate *counts* only if its replay trips the **same invariant** as
the original — shrinking must not wander onto a different bug.  The
result is a locally minimal recipe: removing any single remaining chunk
stops the failure from reproducing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from collections.abc import Callable, Sequence
from typing import TypeVar

from .recipe import ExecutionRecipe, RecordedAction
from .runner import _failure_payload, replay

T = TypeVar("T")

#: Candidate replays one :func:`shrink_recipe` may spend.
MAX_REPLAYS = 600


def _ddmin(
    items: list[T],
    still_fails: Callable[[list[T]], bool],
) -> list[T]:
    """Classic ddmin over ``items``: greedily remove complement chunks.

    ``still_fails`` must hold for the full list; the returned sublist is
    1-minimal w.r.t. the final chunk granularity.
    """
    items = list(items)
    granularity = 2
    while len(items) >= 2:
        chunk = math.ceil(len(items) / granularity)
        reduced = False
        start = 0
        while start < len(items):
            candidate = items[:start] + items[start + chunk:]
            if still_fails(candidate):
                items = candidate
                reduced = True
                # Do not advance: the next chunk shifted into `start`.
            else:
                start += chunk
        if reduced:
            granularity = max(2, granularity - 1)
        elif chunk <= 1:
            break
        else:
            granularity = min(len(items), granularity * 2)
    if len(items) == 1 and still_fails([]):
        items = []
    return items


def _rebuild_actions(
    corrupt_entries: Sequence[tuple[int, int]],
    omit_entries: Sequence[tuple[int, int]],
) -> tuple[RecordedAction, ...]:
    """Reassemble per-round actions from flat (round, value) entries."""
    by_round: dict[int, tuple[list[int], list[int]]] = {}
    for round_no, pid in corrupt_entries:
        by_round.setdefault(round_no, ([], []))[0].append(pid)
    for round_no, index in omit_entries:
        by_round.setdefault(round_no, ([], []))[1].append(index)
    return tuple(
        RecordedAction(
            round=round_no,
            corrupt=tuple(sorted(corrupt)),
            omit=tuple(sorted(omit)),
        )
        for round_no, (corrupt, omit) in sorted(by_round.items())
    )


@dataclass
class ShrinkResult:
    """A minimized recipe plus how much work the search did."""

    recipe: ExecutionRecipe
    original: ExecutionRecipe
    replays: int


def shrink_recipe(recipe: ExecutionRecipe) -> ShrinkResult:
    """Minimize a failing recipe's adversary schedule by replaying.

    A candidate counts when its replay reproduces the recipe's failure
    (:attr:`ReplayReport.reproduced_failure`).  The search stops reducing
    once :data:`MAX_REPLAYS` candidate replays were spent.  Raises
    ``ValueError`` if the recipe does not fail to begin with.
    """
    replays = 0

    def try_candidate(actions: Sequence[RecordedAction]) -> bool:
        nonlocal replays
        if replays >= MAX_REPLAYS:
            return False
        replays += 1
        return replay(recipe.with_actions(actions)).reproduced_failure

    if not try_candidate(recipe.actions):
        raise ValueError(
            "recipe does not reproduce its failure; nothing to shrink"
        )

    # Pass 1: whole round-actions.
    actions = _ddmin(list(recipe.actions), try_candidate)

    # Pass 2: individual corruption entries, omissions held fixed.
    corrupt_entries = [
        (action.round, pid) for action in actions for pid in action.corrupt
    ]
    omit_entries = [
        (action.round, index) for action in actions for index in action.omit
    ]
    corrupt_entries = _ddmin(
        corrupt_entries,
        lambda kept: try_candidate(_rebuild_actions(kept, omit_entries)),
    )

    # Pass 3: individual omission indices, corruptions held fixed.
    omit_entries = _ddmin(
        omit_entries,
        lambda kept: try_candidate(_rebuild_actions(corrupt_entries, kept)),
    )

    shrunk = recipe.with_actions(
        _rebuild_actions(corrupt_entries, omit_entries)
    )

    # Refresh the failure description from the minimized schedule and
    # mark the artifact as shrunk.
    final = replay(shrunk)
    replays += 1
    if final.failure is not None:
        shrunk = replace(
            shrunk,
            expected_failure=_failure_payload(final.failure),
            note=(recipe.note + " " if recipe.note else "") + "(shrunk)",
        )
    return ShrinkResult(recipe=shrunk, original=recipe, replays=replays)
