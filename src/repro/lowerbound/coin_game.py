"""The one-round coin-flipping game (Appendix C, Lemma 12 / Corollary 1).

Abstraction: ``k`` players draw independent random values; a full-information
adversary may *hide* (replace by ⊥) a bounded number of them; a known
function ``f`` of the (partially hidden) values decides the binary outcome.
Lemma 12: for any ``alpha <= 1/2`` the adversary can bias the game toward
one fixed outcome with probability ``> 1 - alpha`` by hiding at most
``8 sqrt(k log(1/alpha))`` values.

This module implements the game for the canonical *threshold* family —
players flip fair ±1 coins and ``f`` is 1 iff the visible sum is at least a
threshold (hidden values count 0) — where the optimal adversary is greedy
(hide the largest contributors toward the undesired side).  The
Theorem-2-shaped experiments measure, by Monte-Carlo + binary search, the
minimal hide budget achieving success probability ``1 - alpha`` and compare
its growth with ``sqrt(k log(1/alpha))``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from collections.abc import Sequence

from ..runtime.randomness import stable_seed


@dataclass(frozen=True)
class ThresholdCoinGame:
    """Players flip fair ±1 coins; outcome 1 iff visible sum >= threshold.

    ``threshold = 0`` is the symmetric majority game the lower-bound proof
    feeds with "state transitions that look 1-ish vs 0-ish".
    """

    k: int
    threshold: int = 0

    def outcome(self, values: Sequence[int], hidden: frozenset[int]) -> int:
        visible_sum = sum(
            value
            for index, value in enumerate(values)
            if index not in hidden
        )
        return 1 if visible_sum >= self.threshold else 0

    def draw(self, rng: random.Random) -> list[int]:
        return [1 if rng.getrandbits(1) else -1 for _ in range(self.k)]

    def bias_toward(
        self, values: Sequence[int], target: int, budget: int
    ) -> frozenset[int] | None:
        """Greedy-optimal hiding: returns a hidden set of size <= budget
        forcing outcome ``target``, or ``None`` when impossible.

        For threshold games, hiding a +1 lowers the visible sum by 1 and
        hiding a -1 raises it by 1, so greedily hiding coins of the
        offending sign is optimal.
        """
        total = sum(values)
        if target == 0:
            # Need visible sum < threshold: hide +1s.
            deficit = total - (self.threshold - 1)
            sign = 1
        else:
            # Need visible sum >= threshold: hide -1s.
            deficit = self.threshold - total
            sign = -1
        if deficit <= 0:
            return frozenset()
        available = [i for i, value in enumerate(values) if value == sign]
        if deficit > min(budget, len(available)):
            return None
        return frozenset(available[:deficit])


def bias_success_probability(
    game: ThresholdCoinGame,
    target: int,
    budget: int,
    trials: int = 2000,
    seed: int = 0,
) -> float:
    """Monte-Carlo probability that the greedy adversary forces ``target``."""
    rng = random.Random(stable_seed("coin-game", game.k, target, budget, seed))
    successes = 0
    for _ in range(trials):
        values = game.draw(rng)
        if game.bias_toward(values, target, budget) is not None:
            successes += 1
    return successes / trials


def minimal_budget_for_success(
    game: ThresholdCoinGame,
    target: int,
    success_probability: float,
    trials: int = 2000,
    seed: int = 0,
) -> int:
    """Smallest hide budget whose empirical success rate meets the target.

    Binary search over the budget (success probability is monotone in it).
    """
    if not 0.0 < success_probability <= 1.0:
        raise ValueError(
            f"success probability must be in (0, 1], got {success_probability}"
        )
    low, high = 0, game.k
    if (
        bias_success_probability(game, target, high, trials, seed)
        < success_probability
    ):
        return game.k  # even hiding everyone is not enough (threshold game: never)
    while low < high:
        mid = (low + high) // 2
        rate = bias_success_probability(game, target, mid, trials, seed)
        if rate >= success_probability:
            high = mid
        else:
            low = mid + 1
    return low


def lemma12_budget(k: int, alpha: float) -> float:
    """The Lemma-12 bound: ``8 sqrt(k log2(1/alpha))`` hides suffice."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must be in (0, 1/2], got {alpha}")
    if k == 0:
        return 0.0
    return 8.0 * math.sqrt(k * math.log2(1.0 / alpha))


@dataclass(frozen=True)
class CoinGamePoint:
    """One measured point of the Lemma-12 experiment."""

    k: int
    alpha: float
    measured_budget: int
    lemma12_bound: float


def sweep_lemma12(
    ks: Sequence[int],
    alphas: Sequence[float],
    trials: int = 2000,
    seed: int = 0,
) -> list[CoinGamePoint]:
    """Measure minimal hide budgets across (k, alpha) and compare with the
    Lemma-12 bound; the scaling in sqrt(k) is the experiment's shape."""
    points = []
    for k in ks:
        game = ThresholdCoinGame(k=k, threshold=0)
        for alpha in alphas:
            budget = minimal_budget_for_success(
                game, target=0, success_probability=1 - alpha,
                trials=trials, seed=seed,
            )
            points.append(
                CoinGamePoint(
                    k=k,
                    alpha=alpha,
                    measured_budget=budget,
                    lemma12_bound=lemma12_budget(k, alpha),
                )
            )
    return points
