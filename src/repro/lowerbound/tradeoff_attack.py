"""Constructive Theorem-2 experiment: the T x (R + T) product under attack.

Theorem 2 proves every consensus algorithm correct with probability
``>= 1 - n^{-3/2}`` obeys ``T x (R + T) = Omega(t^2 / log n)`` against some
adaptive strategy, where T is the round count and R the number of
random-source calls.  The proof's engine is the coin-flipping game: hiding
``~ sqrt(r_i log n)`` deviating coins per round keeps the execution
null/bivalent, so randomness-frugal algorithms stall for ~quadratically
longer.

This module realizes that engine as a concrete adversary against the
broadcast voting protocol (:class:`repro.baselines.ben_or.BenOrVotingProcess`)
whose per-round coin access is throttled to ``k`` processes:

* :class:`BalancingCrashAdversary` watches candidate bits (full information)
  and silences holders of the leading value, paying ``~ |margin|`` ≈
  ``sqrt(k)`` corruptions per round — exactly the Lemma-12 price;
* :func:`measure_tradeoff_product` sweeps k and reports measured
  ``(T, R, T*(R+T))`` against the ``t^2 / log2(n)`` reference — the
  empirical counterpart of the lower-bound curve (who-wins shape: the
  product stays ≈ flat in k, i.e. halving randomness roughly doubles time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from ..baselines.ben_or import BenOrVotingProcess
from ..harness import execute
from ..runtime import Adversary, AdversaryAction, NetworkView


class BalancingCrashAdversary(Adversary):
    """Silence leading-bit holders to pin the vote at the threshold.

    Each round it inspects undecided processes' candidate bits, computes the
    margin of the leading value, and corrupts enough of its holders
    (silencing them completely — the crash special case of omissions) to
    cancel the margin.  It prefers holders that are *allowed to flip coins*
    last, so the randomness supply is drained as slowly as possible, which is
    the adversary-optimal behaviour in the Theorem-2 analysis.
    """

    def __init__(self) -> None:
        self._silenced: set[int] = set()
        self.corruptions_per_round: list[int] = []

    def act(self, view: NetworkView) -> AdversaryAction:
        ones_holders: list[int] = []
        zeros_holders: list[int] = []
        for process in view.processes:
            if not isinstance(process, BenOrVotingProcess):
                continue
            if process.pid in self._silenced or process.pid in view.terminated:
                continue
            if process.decided:
                continue
            if process.b == 1:
                ones_holders.append(process.pid)
            else:
                zeros_holders.append(process.pid)

        ones, zeros = len(ones_holders), len(zeros_holders)
        margin = ones - zeros
        corrupt: frozenset[int] = frozenset()
        if margin and view.budget_left > 0:
            leading = ones_holders if margin > 0 else zeros_holders
            need = (abs(margin) + 1) // 2
            # Silence coinless holders first: they can never flip back, so
            # removing them is pure profit for the adversary.
            coinless = [
                pid
                for pid in leading
                if not self._may_flip(view, pid)
            ]
            coinful = [pid for pid in leading if self._may_flip(view, pid)]
            ordered = coinless + coinful
            chosen = ordered[: min(need, view.budget_left)]
            corrupt = frozenset(chosen)
            self._silenced |= corrupt
        self.corruptions_per_round.append(len(corrupt))

        silenced_now = self._silenced & (view.faulty | corrupt)
        return AdversaryAction(
            corrupt=corrupt,
            omit=view.message_indices_touching(silenced_now),
        )

    @staticmethod
    def _may_flip(view: NetworkView, pid: int) -> bool:
        process = view.processes[pid]
        coin_pids = getattr(process, "coin_pids", None)
        return coin_pids is None or pid in coin_pids


@dataclass(frozen=True)
class AttackPoint:
    """One sweep point of the Theorem-2 experiment."""

    coin_processes: int
    rounds: int
    random_calls: int
    product: int
    reference: float
    decided_all: bool
    #: Whether non-faulty processes still agreed.  A stalled run that is cut
    #: off by the phase budget may violate agreement — that is precisely the
    #: theorem's dichotomy: be slow, or stop being correct.
    agreement_ok: bool

    @property
    def normalized(self) -> float:
        """measured product / (t^2 / log2 n) — Theorem 2 predicts Ω(1)."""
        if self.reference == 0:
            return math.inf
        return self.product / self.reference


def measure_tradeoff_product(
    n: int,
    t: int,
    coin_counts: Sequence[int],
    seed: int = 0,
    max_phases: int | None = None,
) -> list[AttackPoint]:
    """Sweep the number of coin-enabled processes; measure T x (R + T).

    Inputs are perfectly balanced, the hardest starting point.  For each k
    the balancing adversary attacks a run where only processes
    ``0..k-1`` may call the random source.
    """
    points = []
    inputs = [pid % 2 for pid in range(n)]
    reference = t * t / max(1.0, math.log2(n))
    for k in coin_counts:
        adversary = BalancingCrashAdversary()
        coin_pids = frozenset(range(k)) if k < n else None
        result = execute(
            "ben-or",
            inputs,
            t=t,
            adversary=adversary,
            coin_pids=coin_pids,
            seed=seed,
            max_phases=max_phases,
        ).result
        try:
            # The paper's time metric: last non-faulty decision.
            rounds = result.time_to_agreement()
        except AssertionError:
            rounds = result.metrics.rounds
        # The paper's R metric stops at the last non-faulty termination;
        # counting only non-faulty sources excludes the coins that eclipsed
        # faulty stragglers burn while waiting out their timeout.
        calls = sum(
            calls_and_bits[0]
            for pid, calls_and_bits in enumerate(result.randomness_per_process)
            if pid not in result.faulty
        )
        try:
            result.agreement_value()
            agreement_ok = True
        except AssertionError:
            agreement_ok = False
        points.append(
            AttackPoint(
                coin_processes=k,
                rounds=rounds,
                random_calls=calls,
                product=rounds * (calls + rounds),
                reference=reference,
                decided_all=result.all_terminated,
                agreement_ok=agreement_ok,
            )
        )
    return points
