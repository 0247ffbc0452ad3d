"""Adversary combinator: hand control between strategies by round.

The model's adversary is any adaptive function of the full-information
view; :class:`SequentialAdversary` composes existing strategies in time
(e.g. silence early, balance late) without a new strategy class.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..runtime import (
    Adversary,
    AdversaryAction,
    AdversaryContext,
    NetworkView,
)


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
