"""A rollout-based valency adversary: Lemmas 14/15 as a search procedure.

The Theorem-2 proof is existential: *some* adaptive strategy keeps the
execution null-/bivalent by picking, each round, an action under which the
decision probability stays away from 0 and 1.  For small systems that
strategy is computable by brute force:

* the adversary's full-information view is replayable — every execution is
  a deterministic function of (seed, adversary action sequence);
* so the value ``Pr(H, A)`` of a candidate action can be *estimated by
  rollouts*: re-simulate the whole execution from round 0 with the recorded
  action prefix, the candidate action, and a cheap default policy for the
  suffix, across several continuation seeds;
* each round the adversary evaluates a small action menu (do nothing,
  silence k holders of either bit, ...) and commits to the action whose
  rollout estimate of Pr[decide 1] is closest to 1/2 — the valency-keeping
  choice of Lemma 14/15.

This is expensive (simulations per round = |menu| x rollouts), so it is a
small-n research instrument, not a benchmark workhorse; the test suite runs
it against the broadcast voting baseline where it measurably outlasts the
myopic balancing adversary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from ..adversary import ScriptedAdversary, SequentialAdversary
from ..runtime import (
    Adversary,
    AdversaryAction,
    NetworkView,
    SyncNetwork,
    SyncProcess,
)
from ..runtime.randomness import stable_seed

#: Builds a fresh, identically-configured process list for re-simulation.
ProcessFactory = Callable[[], list[SyncProcess]]


class KeepSilencingFaulty(Adversary):
    """Suffix policy for rollouts: keep omitting all faulty traffic.

    Without this, a rollout's suffix would let previously silenced
    processes speak again, skewing every estimate optimistic.
    """

    def act(self, view: NetworkView) -> AdversaryAction:
        return AdversaryAction(
            omit=view.message_indices_touching(view.faulty)
        )


def replay_prefix(
    prefix: Sequence[AdversaryAction], fallback: Adversary | None = None
) -> Adversary:
    """Replay a recorded action prefix, then follow a fallback policy
    (default: :class:`KeepSilencingFaulty`).

    The prefix replays leniently: it is re-run on identical executions,
    but a stale script must weaken, not crash, a divergent rollout.
    """
    return SequentialAdversary(
        [
            ScriptedAdversary(
                [
                    (round_no, action.corrupt, action.omit)
                    for round_no, action in enumerate(prefix)
                ],
                strict=False,
            ),
            fallback if fallback is not None else KeepSilencingFaulty(),
        ],
        boundaries=[len(prefix)],
    )


def _silence_action(
    view: NetworkView, pids: frozenset[int]
) -> AdversaryAction:
    """Corrupt ``pids`` (budget-capped upstream) and omit their traffic."""
    return AdversaryAction(
        corrupt=pids - view.faulty,
        omit=view.message_indices_touching(pids),
    )


@dataclass(frozen=True)
class RolloutConfig:
    """Tuning of the rollout search."""

    rollouts: int = 6
    max_silence_per_round: int = 2
    horizon: int = 400


class RolloutValencyAdversary(Adversary):
    """Pick, each round, the action whose estimated Pr[decide 1] is most
    ambivalent (closest to 1/2) — the executable Lemma-14/15 strategy.

    Parameters
    ----------
    process_factory:
        Rebuilds the protocol's process list from scratch; rollouts
        re-simulate the execution deterministically up to the current round
        (same engine seed) and randomly beyond it.
    engine_seed:
        The seed of the *real* network this adversary is attached to —
        required so the replayed prefix reproduces the real execution.
    decision_probe:
        Maps a finished rollout's decisions to the outcome being tracked
        (default: the majority decision value equals 1).
    """

    def __init__(
        self,
        process_factory: ProcessFactory,
        engine_seed: int,
        config: RolloutConfig | None = None,
        decision_probe: Callable[[dict], bool] | None = None,
        seed: int = 0,
    ) -> None:
        self.process_factory = process_factory
        self.engine_seed = engine_seed
        self.config = config if config is not None else RolloutConfig()
        self.decision_probe = (
            decision_probe if decision_probe is not None else _majority_one
        )
        self._rng = random.Random(stable_seed("rollout-adversary", seed))
        self.history: list[AdversaryAction] = []
        self._silenced: set[int] = set()
        self.evaluations = 0

    # ------------------------------------------------------------------
    def _estimate(
        self, t: int, prefix: list[AdversaryAction]
    ) -> float:
        """Rollout estimate of Pr[probe] under the given action prefix.

        Each rollout replays the recorded prefix on the real engine seed
        (reproducing every coin the adversary has already observed) and
        *forks* the random sources at the first un-simulated round, so the
        suffix randomness differs per rollout — the adversary never peeks
        at future coins.
        """
        hits = 0
        fork_round = len(prefix)
        for _rollout_index in range(self.config.rollouts):
            self.evaluations += 1
            processes = self.process_factory()
            scripted = replay_prefix(prefix)
            fork_seed = self._rng.getrandbits(48)
            # Rollout forks replay a recorded prefix with reseed_at,
            # below the harness surface: a designated engine fixture.
            network = SyncNetwork(
                processes,
                adversary=scripted,
                t=t,
                seed=self.engine_seed,
                max_rounds=self.config.horizon,
                reseed_at=(fork_round, fork_seed),
            )
            try:
                result = network.run()
            except Exception:
                continue
            if self.decision_probe(result.decisions):
                hits += 1
        return hits / max(1, self.config.rollouts)

    def _candidate_actions(
        self, view: NetworkView
    ) -> list[AdversaryAction]:
        """The action menu: no-op plus silencing small holder groups."""
        menu = [
            AdversaryAction(
                corrupt=frozenset(),
                omit=view.message_indices_touching(self._silenced),
            )
        ]
        if view.budget_left <= 0:
            return menu
        holders: dict[int, list[int]] = {0: [], 1: []}
        for process in view.processes:
            bit = getattr(process, "b", None)
            if bit not in (0, 1):
                continue
            if process.pid in view.faulty or process.pid in view.terminated:
                continue
            if getattr(process, "decided", False):
                continue
            holders[bit].append(process.pid)
        for bit in (0, 1):
            for count in range(
                1, min(self.config.max_silence_per_round, view.budget_left) + 1
            ):
                if len(holders[bit]) < count:
                    continue
                pids = frozenset(holders[bit][:count]) | self._silenced
                menu.append(_silence_action(view, frozenset(pids)))
        return menu

    def act(self, view: NetworkView) -> AdversaryAction:
        menu = self._candidate_actions(view)
        if len(menu) == 1:
            chosen = menu[0]
        else:
            best_score = None
            chosen = menu[0]
            for action in menu:
                estimate = self._estimate(
                    view.budget_left + len(view.faulty),
                    self.history + [action],
                )
                score = abs(estimate - 0.5)
                if best_score is None or score < best_score:
                    best_score = score
                    chosen = action
        self.history.append(chosen)
        self._silenced |= set(chosen.corrupt)
        return chosen


def _majority_one(decisions: dict) -> bool:
    values = [value for value in decisions.values() if value in (0, 1)]
    if not values:
        return False
    return sum(values) * 2 > len(values)
