"""Bar-Joseph/Ben-Or-style randomized biased-majority consensus.

The time-optimal crash-model ancestor of Algorithm 1 ([10], discussed in
Section B.3): every round every process broadcasts its candidate bit, counts
the received bits, and either follows a clear majority (margin beyond
``threshold ~ c*sqrt(n)``), decides (margin beyond ``2*threshold``), or flips
a fresh coin.  The adversary must remove ~sqrt(n) deviating coins per round
to stall it, which it can only do for ~t/sqrt(n) rounds.  Votes are tallied
with ``list.count``; only a round they do not cover looks for a DECIDE.

Two roles in this repository:

* the **baseline** Table-1/§1 comparator in the (more benign) crash model,
  with full Theta(n^2)-bits-per-round broadcasts — the communication cost
  Algorithm 1's group machinery avoids;
* the **substrate of the Theorem-2 experiment**: ``coin_pids`` restricts
  which processes may call the random source, so the vote-balancing
  adversary can starve randomness-frugal configurations and the measured
  ``T x (R + T)`` product can be compared against ``t^2 / log n``.
"""

from __future__ import annotations

import math

from ..runtime import (
    ProcessEnv,
    Program,
    SyncProcess,
    inbox_payloads,
    inbox_senders,
    tagged_from,
)

TAG_VOTE = 7
TAG_DECIDE = 8

#: The two votes, one shared payload object each.
_VOTES = ((TAG_VOTE, 0), (TAG_VOTE, 1))


class BenOrVotingProcess(SyncProcess):
    """One process of the broadcast biased-majority protocol.

    Public attributes (visible to the full-information adversary): ``b``,
    ``decided``, ``phase``.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        input_bit: int,
        threshold: float | None = None,
        max_phases: int | None = None,
        coin_pids: frozenset[int] | None = None,
    ) -> None:
        super().__init__(pid, n)
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit!r}")
        self.input_bit = input_bit
        self.b = input_bit
        self.decided = False
        self.phase = 0
        #: Margin (over half) needed to follow the majority; double it to
        #: decide.  Default ~ sqrt(n), the [10] scaling — capped below
        #: (n - 2) / 4 so the decide condition (margin > 2 * threshold)
        #: stays reachable even at tiny n, where the maximum possible
        #: margin is n / 2.
        self.threshold = (
            threshold
            if threshold is not None
            else max(1.0, min(math.sqrt(n), (n - 2) / 4))
        )
        self.max_phases = (
            max_phases
            if max_phases is not None
            else max(8, 4 * int(math.isqrt(n)) * max(1, int(math.log2(n))))
        )
        #: Processes allowed to call the random source; ``None`` = everyone.
        self.coin_pids = coin_pids

    def _may_flip(self) -> bool:
        return self.coin_pids is None or self.pid in self.coin_pids

    def program(self, env: ProcessEnv) -> Program:
        decided_value: int | None = None
        for phase in range(self.max_phases):
            self.phase = phase
            # A ``bool`` bit keeps its own tuple: it sizes a bit under 1.
            env.broadcast(
                _VOTES[self.b] if type(self.b) is int else (TAG_VOTE, self.b)
            )
            inbox = yield

            # Tally by value: the n - 1 copies are the two module votes
            # (or values equal to them), so two C-level counts; only an
            # inbox they do not cover is scanned, for its last DECIDE copy
            # in sender order (two values can coexist after the cut-off).
            payloads = inbox_payloads(inbox)
            votes_one = payloads.count(_VOTES[1])
            votes = votes_one + payloads.count(_VOTES[0])
            ones = self.b + votes_one
            total = 1 + votes
            adopted: int | None = None
            if votes != len(payloads):
                decides = tagged_from(inbox_senders(inbox), payloads, TAG_DECIDE, 2)
                if decides:
                    _, (_, adopted) = decides[-1]
            if adopted is not None:
                decided_value = adopted
                break

            margin = ones - total / 2
            if margin > 2 * self.threshold:
                self.b = 1
                decided_value = 1
                break
            if margin < -2 * self.threshold:
                self.b = 0
                decided_value = 0
                break
            if margin > self.threshold:
                self.b = 1
            elif margin < -self.threshold:
                self.b = 0
            elif self._may_flip():
                self.b = env.random.bit()
            # Randomness-frugal processes keep their current bit in the
            # undecided band — the deterministic behaviour the Theorem-2
            # adversary exploits.

        if decided_value is None:
            # Phase budget exhausted (Monte Carlo cut-off): decide on the
            # current bit.  Benchmarks report this as a stall.
            decided_value = self.b

        self.decided = True
        self.b = decided_value
        # Two decision broadcasts so that even processes that crash-miss one
        # round still hear it before everyone exits.
        env.broadcast((TAG_DECIDE, decided_value))
        yield
        env.broadcast((TAG_DECIDE, decided_value))
        env.decide(decided_value)
        return None
