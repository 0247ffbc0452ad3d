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
(hide the largest contributors toward the undesired side).  The minimal
hide budget achieving success probability ``1 - alpha`` is an exact
quantile of ``Bin(k, 1/2)``; the Theorem-2-shaped experiments compare its
growth with ``sqrt(k log(1/alpha))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from .epoch_chain import binomial_tail_geq


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

    def escape_probability(self, target: int, budget: int) -> float:
        """Exact probability that :meth:`bias_toward` cannot force
        ``target`` on fair coins.

        With ``Z ~ Bin(k, 1/2)`` coins of the sign that hurts ``target``,
        the greedy hider must hide ``2Z - slack`` of them, out of only those
        ``Z`` (``slack = k + threshold - 1`` for target 0, ``k - threshold``
        for target 1): it fails iff ``Z > min((budget + slack) // 2, slack)``.
        """
        slack = self.k - self.threshold if target else self.k + self.threshold - 1
        return binomial_tail_geq(self.k, min((budget + slack) // 2, slack) + 1)


def minimal_budget_for_success(
    game: ThresholdCoinGame, target: int, success_probability: float
) -> int:
    """The exact quantile: the smallest hide budget whose escape probability
    is at most ``1 - success_probability`` (the small side: ``1 - 2^-64`` is
    1.0 in floating point).  ``ValueError`` when none is: at threshold 0 the
    all-+1 draw escapes target 0 at any budget, so ``1 - 2^-k`` is the most.
    """
    if not 0.0 < success_probability <= 1.0:
        raise ValueError(
            f"success probability must be in (0, 1], got {success_probability}"
        )
    most = game.k + abs(game.threshold)  # the escape is flat from here on
    for budget in range(most + 1):
        if game.escape_probability(target, budget) <= 1 - success_probability:
            return budget
    escape = game.escape_probability(target, most)
    raise ValueError(f"no budget reaches {success_probability}: at most {1 - escape}")


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


def sweep_lemma12(ks: Sequence[int], alphas: Sequence[float]) -> list[CoinGamePoint]:
    """The exact minimal hide budgets across (k, alpha) beside the Lemma-12
    bound; the scaling in sqrt(k) is the experiment's shape."""
    return [
        CoinGamePoint(
            k, alpha,
            minimal_budget_for_success(ThresholdCoinGame(k), 0, 1 - alpha),
            lemma12_budget(k, alpha),
        )
        for k in ks
        for alpha in alphas
    ]
