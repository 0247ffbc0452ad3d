"""ScriptedAdversary: replay a recorded adversary schedule verbatim.

The adaptive adversary of Section 2 is a *function* of the execution, but
once an execution is fixed, its decisions are just data: which processes it
corrupted in which round and which flat message indices it omitted.
:class:`ScriptedAdversary` turns that data back into an adversary, which is
what makes recorded executions replayable (``repro.replay``) — the process
randomness is reproduced from seeds and the adversary is reproduced from
its script, so the whole run is a deterministic function of the recipe.

Two modes:

* ``strict=True`` (default) — the script is emitted as recorded; the
  engine validates it as usual, so replaying a schedule recorded from a
  legal run on the identical execution can never raise.
* ``strict=False`` — corruptions are capped to the remaining budget and
  omission indices that are out of range or no longer faulty-incident are
  dropped.  The shrinker uses this mode: deleting a corruption from a
  candidate recipe must not turn its remaining omissions into engine
  errors, it must just weaken the schedule.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from ..runtime import Adversary, AdversaryAction, NetworkView, canonical_omissions

#: One scripted entry: ``(round, corrupt pids, omit indices)`` — or any
#: object with ``round`` / ``corrupt`` / ``omit`` attributes (e.g. the
#: recipe's ``RecordedAction``).
ScriptEntry = Any


def _normalize(entry: ScriptEntry) -> tuple[int, frozenset[int], tuple[int, ...]]:
    if isinstance(entry, (tuple, list)):
        round_no, corrupt, omit = entry
    else:
        round_no, corrupt, omit = entry.round, entry.corrupt, entry.omit
    # Omissions go through the engine's shared canonical form, so a script
    # carrying duplicate flat indices replays the schedule the original
    # run actually applied (and was metered/recorded as).
    return int(round_no), frozenset(corrupt), canonical_omissions(omit)


class ScriptedAdversary(Adversary):
    """Replay a schedule of per-round (corrupt, omit) actions."""

    def __init__(
        self, entries: Iterable[ScriptEntry] = (), strict: bool = True
    ) -> None:
        self._by_round: dict[int, tuple[frozenset[int], tuple[int, ...]]] = {}
        for entry in entries:
            round_no, corrupt, omit = _normalize(entry)
            if round_no in self._by_round:
                raise ValueError(
                    f"duplicate scripted action for round {round_no}"
                )
            self._by_round[round_no] = (corrupt, omit)
        self.strict = strict

    def act(self, view: NetworkView) -> AdversaryAction:
        entry = self._by_round.get(view.round)
        if entry is None:
            return AdversaryAction.nothing()
        corrupt, omit = entry
        corrupt = corrupt - view.faulty
        if self.strict:
            return AdversaryAction(corrupt=corrupt, omit=frozenset(omit))
        if len(corrupt) > view.budget_left:
            corrupt = frozenset(sorted(corrupt)[: view.budget_left])
        faulty_after = view.faulty | corrupt
        messages = view.messages
        total = len(messages)
        legal: list[int] = []
        for index in omit:
            if not 0 <= index < total:
                continue
            message = messages[index]
            if message.sender in faulty_after or (
                message.recipient in faulty_after
            ):
                legal.append(index)
        return AdversaryAction(corrupt=corrupt, omit=frozenset(legal))
