"""Dolev-Strong-style deterministic consensus for the omission model.

Algorithm 1 line 18 falls back to "the deterministic synchronous consensus
algorithm given in Theorem 4 in [15]" (Dolev & Strong, SICOMP'83).  The
original uses signatures against Byzantine faults; in the *omission* model
processes never lie, so a relay chain of distinct process ids plays the role
of the signature chain and is unforgeable (see DESIGN.md, Substitutions).

Protocol (t+1 rounds, all broadcast traffic batched one message per pair):

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

from functools import lru_cache
from operator import itemgetter

from ..runtime import (
    ProcessEnv, Program, SyncProcess, idle_rounds, inbox_payloads, inbox_senders, payload_bits,
)

TAG_DS = 5

#: A relay pack's ``payload_bits`` before its records.
_EMPTY_PACK_BITS = payload_bits((TAG_DS, ()))


@lru_cache(maxsize=8)
def _pid_table(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pids ``range(n)``, one int object each for every process's fan-out
    to share, and what ``payload_bits`` charges each pid as a tuple item."""
    pids = tuple(range(n))
    return pids, tuple(max(1, pid.bit_length()) + 2 for pid in pids)


def dolev_strong_consensus(
    env: ProcessEnv, t: int, input_bit: int, participating: bool = True
) -> Program:
    """Run the t+1-round chain consensus; returns the decision bit.

    Non-participating callers (``participating=False``) stay silent but keep
    lockstep, consuming the same ``t + 1`` rounds and returning ``None``.
    A participant holding every source idles once its last relay is out.
    """
    pid, n, rounds = env.pid, env.n, t + 1
    if not participating:
        return (yield from idle_rounds(env, rounds))
    pids, cost = _pid_table(n)
    others = pids[:pid] + pids[pid + 1 :]
    held = bytearray(n)  # per source: 0 not held, 1 held at 0, 2 held at 1
    held[pid] = 2 if input_bit == 1 else 1
    count = 1
    pending = [(pid, input_bit, (pid,))]  # (source, value, chain) records
    # A pack's size is summed as its records are accepted, never re-walked;
    # ``tail`` is a relay's bits beyond its chain, source and value.
    size, tail = payload_bits(pending[0]) + 1, cost[pid] + 6

    for round_index in range(1, rounds + 1):
        if pending:
            env.send_many(others, (TAG_DS, tuple(pending)), _EMPTY_PACK_BITS + size)
            pending, size = [], 0
        if count == n:  # every source held and relayed: keep no inbox
            inbox = None
            yield from idle_rounds(env, rounds + 1 - round_index)
            break
        inbox = yield
        for sender, payload in zip(inbox_senders(inbox), inbox_payloads(inbox)):
            if not (isinstance(payload, tuple) and len(payload) == 2 and payload[0] == TAG_DS):
                continue
            records = payload[1]
            if round_index > 1:
                # Skip a pack of held sources in C (a junk source reads as
                # held only where its record fails the checks below anyway).
                try:
                    if all(map(held.__getitem__, map(itemgetter(0), records))):
                        continue
                except (TypeError, IndexError, KeyError):
                    pass  # a malformed record: the walk below skips it
            for record in records:
                if not (isinstance(record, tuple) and len(record) == 3):
                    continue
                source, value, chain = record
                # A held source is dropped unwalked, whatever its chain says.
                if type(source) is not int or (0 <= source < n and held[source]):
                    continue
                if value not in (0, 1) or not isinstance(chain, tuple) or len(chain) != round_index:
                    continue
                if chain[0] != source or chain[-1] != sender or pid in chain:
                    continue
                bits = 0  # one walk: every relayer is a pid; add up its wire cost
                for relayer in chain:
                    if type(relayer) is not int or not 0 <= relayer < n:
                        bits = -1
                        break
                    bits += cost[relayer]
                if bits < 0 or (round_index > 1 and len(set(chain)) != round_index):
                    continue
                held[source] = 2 if value == 1 else 1
                count += 1
                if round_index < rounds:
                    pending.append((source, value, chain + (pid,)))
                    value_bits = cost[value] if type(value) is int else payload_bits(value) + 1
                    size += bits + cost[source] + value_bits + tail
            if count == n:
                break  # sources are pids, so every one is held already

    return 1 if held.count(2) >= held.count(1) else 0


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
        self.decision = yield from dolev_strong_consensus(env, self.t, self.input_bit)
        env.decide(self.decision)
