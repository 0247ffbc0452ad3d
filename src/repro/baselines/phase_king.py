"""Phase-king deterministic consensus (Berman-Garay-Perry).

A second deterministic comparator: t+1 phases of 3 rounds, O(n^2) messages
per phase of O(1) bits each, correct for ``n > 4t`` under Byzantine faults —
hence under general omissions, which are strictly weaker.  Unlike the
Dolev-Strong chain protocol it needs no growing relay chains, so its bit
complexity is O(n^2 t): the classic rounds-for-bits alternative the
fault-tolerance literature trades between.

Phase k (king = process k-1):

1. everyone broadcasts its bit; each process takes the majority ``m`` of
   received bits (its own included) and remembers the majority's support;
2. the king broadcasts ``m``;
3. a process keeps ``m`` if its support was at least ``n - t``; otherwise it
   adopts the king's bit (default 0 if the king stayed silent).

Rounds 1 and 2 read ``(TAG_PK_VOTE, bit)`` / ``(TAG_PK_KING, m)`` with ``tagged``.

After phase t+1 every process decides its bit: some phase has a non-faulty
king, which unifies all non-faulty bits, and unified bits survive later
phases because support then stays at least ``n - t``.
"""

from __future__ import annotations

from ..runtime import (
    ProcessEnv,
    Program,
    SyncProcess,
    inbox_payloads,
    inbox_senders,
    tagged,
    tagged_from,
)

TAG_PK_VOTE = 9
TAG_PK_KING = 10


class PhaseKingProcess(SyncProcess):
    """One process of phase-king consensus; requires ``n > 4t``."""

    def __init__(self, pid: int, n: int, input_bit: int, t: int) -> None:
        super().__init__(pid, n)
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit!r}")
        if n <= 4 * t:
            raise ValueError(
                f"phase-king requires n > 4t; got n={n}, t={t}"
            )
        self.input_bit = input_bit
        self.b = input_bit
        self.t = t
        self.decision: int | None = None

    def program(self, env: ProcessEnv) -> Program:
        n, t = self.n, self.t
        for phase in range(t + 1):
            king = phase
            # Round 1: universal exchange.
            env.broadcast((TAG_PK_VOTE, self.b))
            inbox = yield
            votes = tagged(inbox, TAG_PK_VOTE, 2)
            ones = self.b + sum(bit for _, bit in votes)
            zeros = 1 + len(votes) - ones
            majority = 1 if ones >= zeros else 0
            support = ones if majority == 1 else zeros

            # Round 2: the king proposes its majority value.
            if self.pid == king:
                env.broadcast((TAG_PK_KING, majority))
            inbox = yield
            king_value = 0
            proposals = tagged_from(inbox_senders(inbox), inbox_payloads(inbox), TAG_PK_KING, 2)
            for sender, (_, proposed) in proposals:
                if sender == king:
                    king_value = proposed
            if self.pid == king:
                king_value = majority

            # Round 3 (decision rule; no traffic needed).
            if support >= n - t:
                self.b = majority
            else:
                self.b = king_value
            yield

        self.decision = self.b
        env.decide(self.b)
        return None
