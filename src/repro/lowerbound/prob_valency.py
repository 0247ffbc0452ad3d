"""Exact probabilistic valency for small *randomized* toy protocols.

The lower-bound proof classifies states by ``Pr(H, A)`` — the probability
of reaching consensus on 1 when continuing history ``H`` under adversary
strategy ``A`` (Appendix C).  For tiny randomized protocols this quantity
is exactly computable: a minimax/expectimax recursion where

* *chance nodes* are the local-computation coins (the adversary cannot see
  a coin before it is flipped, but acts after — Section 2's ordering);
* *adversary nodes* pick the crash action (with crash-round delivery
  subsets) after observing the round's coins — the full-information
  adaptivity the paper grants.

The tree walk is :func:`repro.lowerbound.valency.fold_crash_game`, the one
the deterministic classifier uses; this module supplies the expectimax
algebra.

:func:`probability_band` returns ``(inf_A Pr, sup_A Pr)``; states are then
classified into the paper's four types relative to a slack ``epsilon``:

* null-valent:  ``eps <= inf`` and ``sup <= 1 - eps``;
* 1-valent:     ``sup > 1 - eps`` and ``inf >= eps``;
* 0-valent:     ``inf < eps`` and ``sup <= 1 - eps``;
* bivalent:     ``sup > 1 - eps`` and ``inf < eps``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .valency import ToyProtocol, fold_crash_game

NULL_VALENT = "null-valent"
ONE_VALENT = "1-valent"
ZERO_VALENT = "0-valent"
BIVALENT = "bivalent"

#: A :class:`~repro.lowerbound.valency.ToyProtocol` that overrides the coin
#: hooks ``wants_coin`` / ``apply_coin`` (the base class never flips).
RandomizedToyProtocol = ToyProtocol


class CoinVotingProtocol(RandomizedToyProtocol):
    """Minimal randomized consensus attempt: follow unanimity, else flip.

    Each process holds a bit; rounds broadcast bits; a process seeing
    unanimity adopts it deterministically, otherwise it re-flips its bit.
    At the horizon it decides its bit.  The protocol is correct only when
    the adversary is too poor to keep breaking unanimity — exactly the
    dynamic the Theorem-2 analysis amortizes.
    """

    def initial_state(self, pid: int, input_bit: int) -> tuple[int, bool]:
        return (input_bit, False)  # (bit, currently-mixed?)

    def wants_coin(self, state: tuple[int, bool], round_no: int) -> bool:
        return state[1]

    def apply_coin(
        self, state: tuple[int, bool], round_no: int, bit: int
    ) -> tuple[int, bool]:
        return (bit, False)

    def outgoing(self, state: tuple[int, bool], round_no: int) -> int:
        return state[0]

    def transition(
        self,
        state: tuple[int, bool],
        round_no: int,
        inbox: tuple[tuple[int, int], ...],
    ) -> tuple[int, bool]:
        values = {state[0]} | {value for _, value in inbox}
        if len(values) == 1:
            return (state[0], False)
        return (state[0], True)  # mixed view: flip next round

    def decision(self, state: tuple[int, bool]) -> int:
        return state[0]


def probability_band(
    protocol: RandomizedToyProtocol,
    inputs: tuple[int, ...],
    t: int,
) -> tuple[float, float]:
    """Exact ``(inf_A Pr[consensus on 1], sup_A Pr[consensus on 1])``.

    "Consensus on 1" means every never-crashed process decides 1 at the
    horizon; disagreement and consensus-on-0 both count as 0 toward the
    probability, matching the paper's ``Pr(H, A)``.
    """

    def leaf(decisions: set) -> float:
        return 1.0 if decisions == {1} else 0.0

    def expectation(values: Iterable[float]) -> float:
        values = list(values)
        weight = 1.0 / len(values)
        total = 0.0
        for value in values:
            total += weight * value
        return total

    def adversary(pick: Callable, bound: float) -> Callable:
        def best_of(values: Iterable[float]) -> float:
            best = None
            for value in values:
                best = value if best is None else pick(best, value)
                if best == bound:  # cannot be improved on: stop searching
                    break
            return best

        return best_of

    return (
        fold_crash_game(protocol, inputs, t, leaf, expectation, adversary(min, 0.0)),
        fold_crash_game(protocol, inputs, t, leaf, expectation, adversary(max, 1.0)),
    )


@dataclass(frozen=True)
class ProbabilisticValency:
    """Classification of one initial state."""

    inputs: tuple[int, ...]
    inf_probability: float
    sup_probability: float
    classification: str


def classify_state(
    protocol: RandomizedToyProtocol,
    inputs: tuple[int, ...],
    t: int,
    epsilon: float = 0.1,
) -> ProbabilisticValency:
    """Classify an initial state into the paper's four valency types."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
    inf_probability, sup_probability = probability_band(protocol, inputs, t)
    high = sup_probability > 1 - epsilon
    low = inf_probability < epsilon
    if high and low:
        classification = BIVALENT
    elif high:
        classification = ONE_VALENT
    elif low:
        classification = ZERO_VALENT
    else:
        classification = NULL_VALENT
    return ProbabilisticValency(
        inputs=tuple(inputs),
        inf_probability=inf_probability,
        sup_probability=sup_probability,
        classification=classification,
    )
