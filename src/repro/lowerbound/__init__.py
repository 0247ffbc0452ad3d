"""Lower-bound machinery (Section 4 / Appendix C).

* :mod:`~repro.lowerbound.coin_game` — the one-round coin-flipping game and
  the Lemma-12 hide budget as an exact quantile;
* :mod:`~repro.lowerbound.talagrand` — exact numeric verification of
  Talagrand's inequality (Theorem 6) on threshold sets;
* :mod:`~repro.lowerbound.epoch_chain` — the one ``Bin(m, 1/2)`` layer and
  the exact chain of Algorithm 1's coin epochs (Lemmas 9/10) on it;
* :mod:`~repro.lowerbound.valency` — exhaustive valency classification of
  toy protocols under adaptive crash schedules (Lemma 13): one fold over
  the crash game, whose expectimax classifier is
  :mod:`~repro.lowerbound.prob_valency`;
* :mod:`~repro.lowerbound.tradeoff_attack` — the constructive
  ``T x (R + T)`` experiment against randomness-throttled voting
  (Theorem 2's empirical shape).
"""

from .anticoncentration import (
    Lemma9Check,
    deviation_probability,
    lemma9_lower_bound,
    verify_lemma9,
)
from .coin_game import (
    CoinGamePoint,
    ThresholdCoinGame,
    lemma12_budget,
    minimal_budget_for_success,
    sweep_lemma12,
)
from .epoch_chain import (
    binomial_tail_geq,
    binomial_tail_lt,
    chain_point,
    epoch_step,
)
from .talagrand import (
    TalagrandCheck,
    check_threshold_point,
    verify_threshold_inequality,
)
from .tradeoff_attack import (
    AttackPoint,
    BalancingCrashAdversary,
    measure_tradeoff_product,
)
from .prob_valency import (
    BIVALENT,
    NULL_VALENT,
    ONE_VALENT,
    ZERO_VALENT,
    CoinVotingProtocol,
    ProbabilisticValency,
    RandomizedToyProtocol,
    classify_state,
    probability_band,
)
from .valency import (
    DISAGREEMENT,
    STUCK,
    FloodMinProtocol,
    MajorityRoundsProtocol,
    ToyProtocol,
    ValencyReport,
    classify_all_inputs,
    fold_crash_game,
    reachable_outcomes,
)

__all__ = [
    "Lemma9Check",
    "deviation_probability",
    "lemma9_lower_bound",
    "verify_lemma9",
    "CoinGamePoint",
    "ThresholdCoinGame",
    "lemma12_budget",
    "minimal_budget_for_success",
    "sweep_lemma12",
    "TalagrandCheck",
    "binomial_tail_geq",
    "binomial_tail_lt",
    "chain_point",
    "epoch_step",
    "check_threshold_point",
    "verify_threshold_inequality",
    "AttackPoint",
    "BalancingCrashAdversary",
    "measure_tradeoff_product",
    "DISAGREEMENT",
    "STUCK",
    "FloodMinProtocol",
    "MajorityRoundsProtocol",
    "ToyProtocol",
    "ValencyReport",
    "classify_all_inputs",
    "fold_crash_game",
    "reachable_outcomes",
    "BIVALENT",
    "NULL_VALENT",
    "ONE_VALENT",
    "ZERO_VALENT",
    "CoinVotingProtocol",
    "ProbabilisticValency",
    "RandomizedToyProtocol",
    "classify_state",
    "probability_band",
]
