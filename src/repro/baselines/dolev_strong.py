"""Dolev-Strong-style deterministic consensus for the omission model.

Algorithm 1 line 18 falls back to "the deterministic synchronous consensus
algorithm given in Theorem 4 in [15]" (Dolev & Strong, SICOMP'83).  The
original uses signatures against Byzantine faults; in the *omission* model
processes never lie, so a relay chain of distinct process ids plays the role
of the signature chain and is unforgeable (see DESIGN.md, Substitutions).

Protocol (t+1 rounds, all broadcast traffic batched one message per pair per
round):

* every participant is the source of one broadcast; round 1 it sends
  ``(source=self, value, chain=(self,))``;
* a record arriving at the end of round r is *accepted* iff its chain has
  exactly r distinct pids (ints in ``range(n)``), starts at its source, ends
  at the message's actual sender, and does not contain the receiver; first
  accepted value per source wins (sources cannot equivocate in this model);
* records accepted before round t+1 are relayed next round with the
  receiver's id appended;
* after round t+1, the decision is the majority over accepted source values
  (ties toward 1) — identical accepted sets at all correct participants give
  agreement, and unanimity of inputs gives validity.

This is simultaneously the paper's deterministic *baseline* (the 40-year-old
O(t)-round, O(n^2 t)-bit comparator from the introduction) and the
low-probability fallback branch of Algorithms 1 and 4.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from ..runtime import ProcessEnv, Program, SyncProcess, inbox_payloads, inbox_senders

TAG_DS = 5

#: A relayed record: (source, value, chain-of-distinct-relayer-ids).
Record = tuple[int, int, tuple[int, ...]]


def _valid_record(
    record: Any, round_index: int, sender: int, receiver: int, n: int
) -> bool:
    """Check the chain discipline for a record received in ``round_index``:
    the source and every relayer must be a pid (an ``int`` in ``range(n)``).
    Cheapest test first; the duplicate test last, once every relayer is a
    hashable int, and only for chains that can hold a duplicate."""
    if not (isinstance(record, tuple) and len(record) == 3):
        return False
    source, value, chain = record
    if type(source) is not int or value not in (0, 1):
        return False
    if not isinstance(chain, tuple) or len(chain) != round_index:
        return False
    if chain[0] != source or chain[-1] != sender or receiver in chain:
        return False
    for pid in chain:
        if type(pid) is not int or not 0 <= pid < n:
            return False
    return round_index == 1 or len(set(chain)) == round_index


def dolev_strong_consensus(
    env: ProcessEnv,
    t: int,
    input_bit: int,
    participating: bool = True,
) -> Program:
    """Run the t+1-round chain consensus; returns the decision bit.

    Non-participating callers (``participating=False``) stay silent but keep
    lockstep, consuming the same ``t + 1`` rounds and returning ``None``.
    """
    pid, n = env.pid, env.n
    rounds = t + 1
    accepted: dict[int, int] = {}
    pending: list[Record] = []
    if participating:
        accepted[pid] = input_bit
        pending.append((pid, input_bit, (pid,)))

    for round_index in range(1, rounds + 1):
        if participating and pending:
            env.broadcast((TAG_DS, tuple(pending)))
        pending = []
        inbox = yield
        if not participating:
            continue
        for sender, payload in zip(inbox_senders(inbox), inbox_payloads(inbox)):
            if len(accepted) == n:
                break  # sources are pids, so every one is held already
            if not (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == TAG_DS
            ):
                continue
            records = payload[1]
            if round_index > 1:
                # A relay pack of held sources changes nothing below (a
                # source is only ever accepted as an int): skip it in C.
                try:
                    if all(map(accepted.__contains__, map(itemgetter(0), records))):
                        continue
                except (TypeError, IndexError, KeyError):
                    pass  # a malformed record: the walk below skips it
            for record in records:
                # A held source is dropped whatever its chain says: look it
                # up first, walk the chain only for sources not yet held.
                shaped = isinstance(record, tuple) and len(record) == 3
                if shaped and type(record[0]) is int and record[0] in accepted:
                    continue
                if not _valid_record(record, round_index, sender, pid, n):
                    continue
                source, value, chain = record
                accepted[source] = value
                if round_index < rounds:
                    pending.append((source, value, chain + (pid,)))

    if not participating:
        return None
    ones = sum(1 for value in accepted.values() if value == 1)
    zeros = len(accepted) - ones
    return 1 if ones >= zeros else 0


class DolevStrongProcess(SyncProcess):
    """Standalone baseline: every process participates and decides.

    The 40-year-old deterministic comparator of the paper's introduction:
    O(t) rounds and O(n^2 t)-scale communication against any omission
    adversary with ``t < n/2`` (the majority-aggregation step needs honest
    sources to dominate for validity).
    """

    def __init__(self, pid: int, n: int, input_bit: int, t: int) -> None:
        super().__init__(pid, n)
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit!r}")
        if not 0 <= t < n:
            raise ValueError(f"fault budget t={t} must satisfy 0 <= t < n")
        self.input_bit = input_bit
        self.t = t
        self.decision: int | None = None

    def program(self, env: ProcessEnv) -> Program:
        decision = yield from dolev_strong_consensus(
            env, self.t, self.input_bit, participating=True
        )
        self.decision = decision
        env.decide(decision)
        return None
