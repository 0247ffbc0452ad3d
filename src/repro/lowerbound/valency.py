"""Valency classification of toy protocols by exhaustive adversary search.

The lower-bound proof (Appendix C) classifies algorithm states by *valency*:
which outcomes an adversary can still steer the execution toward.  Its
Lemma 13 shows every consensus algorithm has an initial state that is not
uni-valent when the adversary controls one process.

This module makes that machinery executable for small round-based
protocols.  :func:`fold_crash_game` is the one walk over the game tree of all
adaptive clean-crash schedules (crash = silent from that round on, the
paper's remark that crashes are omissions' special case); a classifier
supplies what a leaf, a coin flip and an adversary choice are worth.  The
set-union classifier here computes the set of *reachable outcomes* from every
initial input assignment:

* ``{0}`` / ``{1}``  — uni-valent in the paper's sense;
* ``{0, 1, ...}``    — bivalent (Lemma-13 witness);
* containing :data:`DISAGREEMENT` or :data:`STUCK` — the protocol is simply
  not a (terminating) consensus algorithm at this fault budget.

The set is exact except that the search stops widening a node once 0, 1 and
:data:`DISAGREEMENT` are all reachable from it, so :data:`STUCK` may be
missing from a set that holds all three.

A randomized protocol's valency is defined through probabilities: the
min/max-expectimax classifier over the same fold is
:mod:`repro.lowerbound.prob_valency`, and the constructive randomized attack
lives in :mod:`repro.lowerbound.tradeoff_attack`.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from typing import Any

#: Outcome marker: some adversary schedule makes surviving processes decide
#: different values (agreement violation).
DISAGREEMENT = "DISAGREEMENT"
#: Outcome marker: some schedule leaves a surviving process undecided at the
#: protocol's round horizon (termination violation).
STUCK = "STUCK"


class ToyProtocol(ABC):
    """A synchronous broadcast protocol on n processes.

    Per round, in the paper's phase order: each alive process that
    :meth:`wants_coin` first applies a fair coin to its state, then every
    alive process broadcasts one value (a function of its state) and
    transitions on the received values.  After ``max_rounds`` rounds every
    process must expose a decision.  A protocol that does not override
    :meth:`wants_coin` is deterministic.
    """

    def __init__(self, n: int, max_rounds: int) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.n = n
        self.max_rounds = max_rounds

    @abstractmethod
    def initial_state(self, pid: int, input_bit: int) -> Hashable:
        """The pre-round-0 state of process ``pid``."""

    def wants_coin(self, state: Hashable, round_no: int) -> bool:
        """Whether this process calls its random source this round."""
        return False

    def apply_coin(self, state: Hashable, round_no: int, bit: int) -> Hashable:
        """The state after the coin lands on ``bit`` (asked only of a
        process that :meth:`wants_coin`)."""
        raise NotImplementedError

    @abstractmethod
    def outgoing(self, state: Hashable, round_no: int) -> Hashable:
        """The value broadcast by a process in this round."""

    @abstractmethod
    def transition(
        self,
        state: Hashable,
        round_no: int,
        inbox: tuple[tuple[int, Hashable], ...],
    ) -> Hashable:
        """New state after receiving ``(sender, value)`` pairs."""

    @abstractmethod
    def decision(self, state: Hashable) -> int | None:
        """Decided value at the horizon (None = undecided)."""


class FloodMinProtocol(ToyProtocol):
    """Flooding min-consensus: state = min value seen; decide it at the end.

    The classic crash-tolerant protocol: correct with ``max_rounds >= t + 1``
    crash faults, and provably *incorrect* (reachable DISAGREEMENT) with
    fewer rounds — both facts the exhaustive search verifies.
    """

    def initial_state(self, pid: int, input_bit: int) -> int:
        return input_bit

    def outgoing(self, state: int, round_no: int) -> int:
        return state

    def transition(
        self,
        state: int,
        round_no: int,
        inbox: tuple[tuple[int, int], ...],
    ) -> int:
        values = [value for _, value in inbox]
        return min([state] + values)

    def decision(self, state: int) -> int:
        return state


class MajorityRoundsProtocol(ToyProtocol):
    """Repeated majority voting with ties toward 0; decide after the horizon.

    Deliberately *not* a correct consensus protocol under crashes — used to
    exercise the DISAGREEMENT detection.
    """

    def initial_state(self, pid: int, input_bit: int) -> int:
        return input_bit

    def outgoing(self, state: int, round_no: int) -> int:
        return state

    def transition(
        self,
        state: int,
        round_no: int,
        inbox: tuple[tuple[int, int], ...],
    ) -> int:
        ones = state + sum(value for _, value in inbox)
        total = 1 + len(inbox)
        return 1 if 2 * ones > total else 0

    def decision(self, state: int) -> int:
        return state


@dataclass(frozen=True)
class ValencyReport:
    """Classification of every initial input assignment of a protocol."""

    outcomes: Mapping[tuple[int, ...], frozenset]

    def univalent(self, value: int) -> list[tuple[int, ...]]:
        return [
            inputs
            for inputs, reachable in self.outcomes.items()
            if reachable == frozenset({value})
        ]

    def bivalent(self) -> list[tuple[int, ...]]:
        return [
            inputs
            for inputs, reachable in self.outcomes.items()
            if {0, 1} <= set(reachable)
        ]

    def broken(self) -> list[tuple[int, ...]]:
        return [
            inputs
            for inputs, reachable in self.outcomes.items()
            if DISAGREEMENT in reachable or STUCK in reachable
        ]

    def lemma13_witness(self) -> tuple[int, ...] | None:
        """An input assignment that is not uni-valent (Lemma 13)."""
        for inputs, reachable in self.outcomes.items():
            if len(reachable) > 1 or not reachable <= {0, 1}:
                return inputs
        return None


def _crash_actions(
    alive_sorted: list[int], budget: int
) -> Iterator[dict[int, frozenset[int]]]:
    """Every action open to the adversary this round, as ``{crashing pid:
    the recipients its last broadcast still reaches}`` — any subset of the
    alive processes within the budget, each splitting its final round any
    way (the crash-round flexibility the model grants)."""
    for crash_count in range(budget + 1):
        for crashed in itertools.combinations(alive_sorted, crash_count):
            reach_options = []
            for pid in crashed:
                receivers = [q for q in alive_sorted if q != pid]
                reach_options.append(
                    [
                        frozenset(subset)
                        for size in range(len(receivers) + 1)
                        for subset in itertools.combinations(receivers, size)
                    ]
                )
            for reaches in itertools.product(*reach_options):
                yield dict(zip(crashed, reaches))


def fold_crash_game(
    protocol: ToyProtocol,
    inputs: tuple[int, ...],
    t: int,
    leaf: Callable[[set], Any],
    chance: Callable[[Iterable], Any],
    choice: Callable[[Iterable], Any],
) -> Any:
    """Fold the adaptive clean-crash game tree from ``inputs``, memoized
    over (round, alive-set, state-vector).

    Each round, in the paper's order: the processes that want one flip their
    coins; every alive process broadcasts; the adversary, having seen the
    coins, crashes any subset of alive processes within its remaining budget
    (crashed processes deliver nothing from their crash round on); the
    survivors transition.  The classifier says what things are worth:
    ``leaf(decisions)`` values the survivors' decision set at the horizon,
    ``choice(values)`` folds the values of the adversary's actions and
    ``chance(values)`` those of the equally likely coin outcomes (a single
    one when nobody flips).  Both receive lazy iterables in enumeration
    order, so a fold that stops reading prunes the search.
    """
    n = protocol.n
    if len(inputs) != n:
        raise ValueError(f"need {n} inputs, got {len(inputs)}")
    cache: dict[tuple, Any] = {}

    def evaluate(round_no: int, alive: frozenset[int], states: tuple) -> Any:
        if round_no == protocol.max_rounds:
            return leaf({protocol.decision(states[pid]) for pid in alive})
        key = (round_no, alive, states)
        cached = cache.get(key)
        if cached is not None:
            return cached

        alive_sorted = sorted(alive)
        budget = t - (n - len(alive))
        flippers = [
            pid
            for pid in alive_sorted
            if protocol.wants_coin(states[pid], round_no)
        ]

        def after(coins: tuple[int, ...]) -> Iterator:
            """The value of each adversary action once ``coins`` landed."""
            coined = list(states)
            for pid, bit in zip(flippers, coins):
                coined[pid] = protocol.apply_coin(coined[pid], round_no, bit)
            broadcast = {
                pid: protocol.outgoing(coined[pid], round_no)
                for pid in alive_sorted
            }
            for reach in _crash_actions(alive_sorted, budget):
                survivors = alive.difference(reach)
                new_states = list(coined)
                for pid in sorted(survivors):
                    inbox = tuple(
                        (sender, broadcast[sender])
                        for sender in alive_sorted
                        if sender != pid
                        and (sender not in reach or pid in reach[sender])
                    )
                    new_states[pid] = protocol.transition(
                        coined[pid], round_no, inbox
                    )
                yield evaluate(round_no + 1, survivors, tuple(new_states))

        result = chance(
            choice(after(coins))
            for coins in itertools.product((0, 1), repeat=len(flippers))
        )
        cache[key] = result
        return result

    initial_states = tuple(
        protocol.initial_state(pid, inputs[pid]) for pid in range(n)
    )
    return evaluate(0, frozenset(range(n)), initial_states)


def reachable_outcomes(
    protocol: ToyProtocol, inputs: tuple[int, ...], t: int
) -> frozenset:
    """Outcomes reachable under adaptive clean-crash schedules (and, for a
    protocol that flips coins, with positive probability): the set-union
    fold of :func:`fold_crash_game`, exact up to the module docstring's
    :data:`STUCK` caveat."""

    def leaf(decisions: set) -> frozenset:
        if None in decisions:
            return frozenset({STUCK})
        if len(decisions) > 1:
            return frozenset({DISAGREEMENT})
        return frozenset(decisions)

    def union(values: Iterable[frozenset]) -> frozenset:
        outcomes: set = set()
        for value in values:
            outcomes |= value
            if {0, 1, DISAGREEMENT} <= outcomes:
                break
        return frozenset(outcomes)

    return fold_crash_game(protocol, inputs, t, leaf, union, union)


def classify_all_inputs(protocol: ToyProtocol, t: int) -> ValencyReport:
    """Classify every input assignment of a (small) protocol."""
    outcomes = {}
    for inputs in itertools.product((0, 1), repeat=protocol.n):
        outcomes[inputs] = reachable_outcomes(protocol, inputs, t)
    return ValencyReport(outcomes=outcomes)
