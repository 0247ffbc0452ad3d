"""Adversary combinators: build richer strategies out of simple ones.

The model's adversary is any adaptive function of the full-information
view; these combinators express common compositions without new strategy
classes:

* :class:`SequentialAdversary` — hand control from one strategy to the next
  at fixed round boundaries (e.g. silence early, balance late);
* :class:`UnionAdversary` — run several strategies in parallel each round
  and merge their actions (corruptions capped at the budget jointly,
  omissions unioned — the engine validates the merged action as usual);
* :class:`ThrottledAdversary` — cap another strategy's corruptions per
  round (the Theorem-2 proof restricts the adversary to
  ``16 sqrt(r_i log n) + 1`` per round; this makes that restriction
  expressible);
* :class:`RecordingAdversary` — transparent wrapper logging every action,
  for tests and diagnostics.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..runtime import (
    Adversary,
    AdversaryAction,
    AdversaryContext,
    NetworkView,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from .scripted import ScriptedAdversary


class SequentialAdversary(Adversary):
    """Delegate to ``stages[i]`` while ``round < boundaries[i]``.

    ``boundaries`` are ascending round numbers; the final stage handles all
    later rounds.  Example: silence for 10 rounds, then balance::

        SequentialAdversary(
            [SilenceAdversary(range(3)), VoteBalancingAdversary()],
            boundaries=[10],
        )
    """

    def __init__(
        self, stages: Sequence[Adversary], boundaries: Sequence[int]
    ) -> None:
        if len(stages) != len(boundaries) + 1:
            raise ValueError(
                f"need exactly len(stages)-1 boundaries; got {len(stages)} "
                f"stages and {len(boundaries)} boundaries"
            )
        if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
            raise ValueError("boundaries must be strictly ascending")
        self.stages = list(stages)
        self.boundaries = list(boundaries)

    def setup(self, ctx: AdversaryContext) -> None:
        for stage in self.stages:
            stage.setup(ctx)

    def _stage_for(self, round_no: int) -> Adversary:
        for stage, boundary in zip(self.stages, self.boundaries):
            if round_no < boundary:
                return stage
        return self.stages[-1]

    def act(self, view: NetworkView) -> AdversaryAction:
        return self._stage_for(view.round).act(view)


class UnionAdversary(Adversary):
    """Merge several strategies' actions each round.

    Corruption requests are honoured in strategy order until the shared
    budget runs out; omission sets are unioned (and filtered to messages
    that are faulty-incident after the merged corruptions, so a strategy
    whose corruption was dropped cannot produce an illegal omission).
    """

    def __init__(self, parts: Sequence[Adversary]) -> None:
        if not parts:
            raise ValueError("UnionAdversary needs at least one strategy")
        self.parts = list(parts)

    def setup(self, ctx: AdversaryContext) -> None:
        for part in self.parts:
            part.setup(ctx)

    def act(self, view: NetworkView) -> AdversaryAction:
        corrupt: list[int] = []
        omit: set[int] = set()
        budget = view.budget_left
        for part in self.parts:
            action = part.act(view)
            for pid in sorted(action.corrupt):
                if pid in view.faulty or pid in corrupt:
                    continue
                if len(corrupt) >= budget:
                    break
                corrupt.append(pid)
            omit |= set(action.omit)
        faulty_after = view.faulty | set(corrupt)
        legal_omit = frozenset(
            index
            for index in sorted(omit)
            if 0 <= index < len(view.messages)
            and (
                view.messages[index].sender in faulty_after
                or view.messages[index].recipient in faulty_after
            )
        )
        return AdversaryAction(corrupt=frozenset(corrupt), omit=legal_omit)


class ThrottledAdversary(Adversary):
    """Cap the wrapped strategy's corruptions per round.

    The Theorem-2 strategy space restricts the adversary to
    ``O(sqrt(r_i log n))`` new corruptions per round; this combinator
    imposes such per-round caps on any strategy (dropping the excess, in
    the wrapped strategy's preference order).
    """

    def __init__(self, inner: Adversary, per_round_cap: int) -> None:
        if per_round_cap < 0:
            raise ValueError("per-round cap must be non-negative")
        self.inner = inner
        self.per_round_cap = per_round_cap

    def setup(self, ctx: AdversaryContext) -> None:
        self.inner.setup(ctx)

    def act(self, view: NetworkView) -> AdversaryAction:
        action = self.inner.act(view)
        corrupt = frozenset(sorted(action.corrupt)[: self.per_round_cap])
        faulty_after = view.faulty | corrupt
        omit = frozenset(
            index
            for index in action.omit
            if view.messages[index].sender in faulty_after
            or view.messages[index].recipient in faulty_after
        )
        return AdversaryAction(corrupt=corrupt, omit=omit)


class RecordingAdversary(Adversary):
    """Transparent wrapper that logs every (round, action) pair."""

    def __init__(self, inner: Adversary) -> None:
        self.inner = inner
        self.actions: list[tuple[int, AdversaryAction]] = []

    def setup(self, ctx: AdversaryContext) -> None:
        self.inner.setup(ctx)

    def act(self, view: NetworkView) -> AdversaryAction:
        action = self.inner.act(view)
        self.actions.append((view.round, action))
        return action

    def total_corruptions(self) -> int:
        return sum(len(action.corrupt) for _, action in self.actions)

    def total_omissions(self) -> int:
        return sum(len(action.omit) for _, action in self.actions)

    def scripted(self, strict: bool = True) -> ScriptedAdversary:
        """A :class:`ScriptedAdversary` replaying the recorded schedule.

        Lets any recorded live run be re-executed verbatim — the
        combinator-level counterpart of the ``repro.replay`` recipe flow.
        """
        from .scripted import ScriptedAdversary

        return ScriptedAdversary(
            [
                (round_no, action.corrupt, action.omit)
                for round_no, action in self.actions
            ],
            strict=strict,
        )
