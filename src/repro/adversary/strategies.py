"""Concrete adaptive-adversary strategies (Section 2's adversary model).

All strategies receive the full-information :class:`NetworkView` each round
(process states, outbound messages, randomness already drawn) and return an
:class:`AdversaryAction`.  The engine enforces legality; these classes only
encode *intent*:

* :class:`StaticCrashAdversary` — scheduled permanent crashes (omission of
  all traffic from the crash round on), the paper's remark that crashes are a
  special case of omissions;
* :class:`SilenceAdversary` — corrupts a fixed set up front and silences it
  completely;
* :class:`RandomOmissionAdversary` — corrupts up to budget and drops each
  faulty-incident message with probability q (background noise);
* :class:`EclipseAdversary` — corrupts a victim's spreading-graph neighbours
  and silences their messages *to the victim*, driving a non-faulty process
  inoperative (the phenomenon Section B highlights);
* :class:`GroupKnockoutAdversary` — corrupts a majority of one
  sqrt(n)-group and silences it, destroying the group's aggregation quorum;
* :class:`VoteBalancingAdversary` — the constructive core of the
  Bar-Joseph/Ben-Or-style lower-bound strategy: watches candidate bits and
  silences holders of the *leading* value to keep the vote near the
  thresholds, spending ~sqrt(n) corruptions per epoch.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence

from ..runtime.randomness import stable_seed

from ..runtime import Adversary, AdversaryAction, AdversaryContext, NetworkView


def _cap_to_budget(
    candidates: Iterable[int], view: NetworkView
) -> frozenset[int]:
    """First ``budget_left`` not-yet-faulty candidates, in given order."""
    chosen: list[int] = []
    for pid in candidates:
        if pid in view.faulty or pid in chosen:
            continue
        if len(chosen) >= view.budget_left:
            break
        chosen.append(pid)
    return frozenset(chosen)


class StaticCrashAdversary(Adversary):
    """Crash given processes at given rounds; silence them afterwards.

    ``schedule`` maps round number -> iterable of pids to crash in that
    round.  From its crash round on, every message from or to a crashed
    process is omitted — the strongest crash semantics expressible with
    omissions.
    """

    def __init__(self, schedule: dict[int, Iterable[int]]) -> None:
        self.schedule = {
            round_no: tuple(pids) for round_no, pids in schedule.items()
        }
        self._crashed: set[int] = set()

    def act(self, view: NetworkView) -> AdversaryAction:
        due = self.schedule.get(view.round, ())
        corrupt = _cap_to_budget(due, view)
        self._crashed |= corrupt
        if not self._crashed:
            return AdversaryAction.nothing()
        omit = view.message_indices_touching(self._crashed)
        return AdversaryAction(corrupt=corrupt, omit=omit)


class SilenceAdversary(Adversary):
    """Corrupt a fixed set when first invoked; omit its traffic forever.

    Corrupting on first invocation (not a hardcoded round) keeps the
    strategy meaningful inside combinators like
    :class:`~repro.adversary.SequentialAdversary`.
    """

    def __init__(self, victims: Sequence[int]) -> None:
        self.victims = tuple(victims)
        self._started = False

    def act(self, view: NetworkView) -> AdversaryAction:
        corrupt = frozenset()
        if not self._started:
            self._started = True
            corrupt = _cap_to_budget(self.victims, view)
        silenced = set(self.victims) & (view.faulty | corrupt)
        return AdversaryAction(
            corrupt=corrupt, omit=view.message_indices_touching(silenced)
        )


class RandomOmissionAdversary(Adversary):
    """Corrupt up to the budget immediately; drop faulty-incident messages
    independently with probability ``omit_probability``."""

    def __init__(
        self,
        omit_probability: float = 0.5,
        corrupt_count: int | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= omit_probability <= 1.0:
            raise ValueError(
                f"omit probability must be in [0, 1], got {omit_probability}"
            )
        self.omit_probability = omit_probability
        self.corrupt_count = corrupt_count
        self._rng = random.Random(stable_seed("random-omission", seed))
        self._targets: tuple[int, ...] = ()
        self._started = False

    def setup(self, ctx: AdversaryContext) -> None:
        count = (
            ctx.t
            if self.corrupt_count is None
            else min(self.corrupt_count, ctx.t)
        )
        self._targets = (
            tuple(self._rng.sample(range(ctx.n), count)) if count else ()
        )

    def act(self, view: NetworkView) -> AdversaryAction:
        corrupt = frozenset()
        if not self._started:
            self._started = True
            corrupt = _cap_to_budget(self._targets, view)
        faulty = view.faulty | corrupt
        omit = frozenset(
            index
            for index in view.message_indices_touching(faulty)
            if self._rng.random() < self.omit_probability
        )
        return AdversaryAction(corrupt=corrupt, omit=omit)


class EclipseAdversary(Adversary):
    """Drive a *non-faulty* victim inoperative by silencing its neighbours.

    Corrupts as many of the victim's spreading-graph neighbours as the budget
    allows and omits exactly their messages **to the victim**, starving it
    below the ``Delta/3`` operative threshold while the rest of the system
    keeps the corrupted processes' other links intact (so they may well stay
    operative themselves — the paper's point that faulty can remain operative
    and non-faulty can become inoperative).
    """

    def __init__(self, victim: int, neighbors: Sequence[int]) -> None:
        self.victim = victim
        self.neighbors = tuple(neighbors)
        self._started = False

    def act(self, view: NetworkView) -> AdversaryAction:
        corrupt = frozenset()
        if not self._started:
            self._started = True
            corrupt = _cap_to_budget(
                (pid for pid in self.neighbors if pid != self.victim), view
            )
        silenced = set(self.neighbors) & (view.faulty | corrupt)
        omit = view.message_indices_from(silenced) & view.message_indices_to({self.victim})
        return AdversaryAction(corrupt=corrupt, omit=omit)


class GroupKnockoutAdversary(Adversary):
    """Corrupt a majority of one sqrt(n)-group and silence it completely.

    With more than half the group silent, every remaining member loses the
    GroupRelay confirmation quorum and the whole group goes inoperative —
    its candidate bits then count for nobody (Lemma 7's worst case).
    """

    def __init__(self, group_members: Sequence[int]) -> None:
        self.group_members = tuple(group_members)
        self._started = False

    def act(self, view: NetworkView) -> AdversaryAction:
        corrupt = frozenset()
        if not self._started:
            self._started = True
            majority = len(self.group_members) // 2 + 1
            corrupt = _cap_to_budget(self.group_members[:majority], view)
        silenced = set(self.group_members) & (view.faulty | corrupt)
        return AdversaryAction(
            corrupt=corrupt, omit=view.message_indices_touching(silenced)
        )


class VoteBalancingAdversary(Adversary):
    """Keep the candidate-bit counts balanced for as long as possible.

    The constructive strategy behind the sqrt(n)-round lower-bound intuition
    (Section B.3): whenever the operative vote drifts toward a value, corrupt
    and silence holders of the *leading* bit (most-connected first) to pull
    the visible counts back toward the undecided band, spending from the
    whole remaining budget.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(stable_seed("vote-balancer", seed))
        self._silenced: set[int] = set()

    def act(self, view: NetworkView) -> AdversaryAction:
        ones = zeros = 0
        holders: dict[int, list[int]] = {0: [], 1: []}
        for process in view.processes:
            bit = getattr(process, "b", None)
            operative = getattr(process, "operative", True)
            decided = getattr(process, "decided", False)
            pid = process.pid
            if (
                bit not in (0, 1)
                or not operative
                or decided
                or pid in self._silenced
                or pid in view.terminated
            ):
                continue
            holders[bit].append(pid)
            if bit == 1:
                ones += 1
            else:
                zeros += 1

        total = ones + zeros
        corrupt: frozenset[int] = frozenset()
        if total > 0:
            leading = 1 if ones >= zeros else 0
            margin = abs(ones - zeros)
            to_silence = min(margin // 2, view.budget_left)
            if to_silence > 0:
                pool = [
                    pid for pid in holders[leading] if pid not in view.faulty
                ]
                self._rng.shuffle(pool)
                corrupt = frozenset(pool[:to_silence])
                self._silenced |= corrupt

        silenced_now = self._silenced & (view.faulty | corrupt)
        return AdversaryAction(
            corrupt=corrupt,
            omit=view.message_indices_touching(silenced_now),
        )


#: The named adversaries: ``name -> factory(n, t, seed)``.  The one place a
#: name means a strategy — campaign cells (and so the report's sweeps), the
#: conformance battery and the CLI ``--adversary`` choices all read it.
GALLERY: dict[str, Callable[[int, int, int], Adversary | None]] = {
    "none": lambda n, t, seed: None,
    "silence": lambda n, t, seed: SilenceAdversary(range(t)),
    "random": lambda n, t, seed: RandomOmissionAdversary(0.6, seed=seed),
    "balance": lambda n, t, seed: VoteBalancingAdversary(seed=seed),
    "staggered-crash": lambda n, t, seed: StaticCrashAdversary(
        {3 * k: [k] for k in range(t)}
    ),
}
