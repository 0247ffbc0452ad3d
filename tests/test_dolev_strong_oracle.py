"""Differential test: ``dolev_strong_consensus`` vs its per-copy original.

The receive step reads its inbox by column, validates a chain cheapest
test first and, from round 2 on, skips a relay pack whose sources are all
held without entering Python per record.  This module keeps the original
-- one ``Message`` per copy, every record of every pack walked, the
validator in its first order -- verbatim as the executable specification,
and checks that the two accept the same sources with the same values,
queue the same relay packs in the same flat copy order and decide alike,
under random omissions, chaotic adversaries and non-participating sources.
"""

import pytest

from repro.adversary import ChaosAdversary, RandomOmissionAdversary
from repro.baselines.dolev_strong import TAG_DS, dolev_strong_consensus
from repro.runtime import SyncNetwork, SyncProcess

from .test_golden_dolev_strong import FlatCopyRecorder


def reference_valid_record(record, round_index, sender, receiver, n):
    """The original chain check (source, value, length, ids, duplicates,
    endpoints, receiver -- in that order)."""
    if not (isinstance(record, tuple) and len(record) == 3):
        return False
    source, value, chain = record
    if type(source) is not int or value not in (0, 1):
        return False
    if not isinstance(chain, tuple) or len(chain) != round_index:
        return False
    if not all(type(pid) is int and 0 <= pid < n for pid in chain):
        return False
    if len(set(chain)) != len(chain):
        return False
    if chain[0] != source or chain[-1] != sender:
        return False
    return receiver not in chain


def reference_dolev_strong_consensus(env, t, input_bit, participating=True):
    """The original receive loop: one ``Message`` per copy, every record."""
    pid, n = env.pid, env.n
    rounds = t + 1
    accepted = {}
    pending = []
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
        for message in inbox:
            if len(accepted) == n:
                break
            payload = message.payload
            if not (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == TAG_DS
            ):
                continue
            for record in payload[1]:
                shaped = isinstance(record, tuple) and len(record) == 3
                if shaped and type(record[0]) is int and record[0] in accepted:
                    continue
                if not reference_valid_record(
                    record, round_index, message.sender, pid, n
                ):
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


def tapped(program, sink):
    """``yield from program``, keeping a reference to its ``accepted`` map
    (the dict it fills in place) once the program has built it."""
    next(program)
    sink.append(program.gi_frame.f_locals["accepted"])
    while True:
        inbox = yield
        try:
            program.send(inbox)
        except StopIteration as done:
            return done.value


class OracleHarness(SyncProcess):
    def __init__(self, pid, n, bit, t, participating, consensus):
        super().__init__(pid, n)
        self.bit, self.t = bit, t
        self.participating = participating
        self.consensus = consensus
        self.accepted = []

    def program(self, env):
        decision = yield from tapped(
            self.consensus(env, self.t, self.bit, self.participating),
            self.accepted,
        )
        env.decide(decision)
        return None


ADVERSARIES = {
    "random-0.4": lambda seed: RandomOmissionAdversary(0.4, seed=seed),
    "random-0.8": lambda seed: RandomOmissionAdversary(0.8, seed=seed),
    "chaos": lambda seed: ChaosAdversary(seed=seed),
    "none": lambda seed: None,
}


def run(consensus, n, adversary, seed, silent_every):
    t = max(1, n // 4)
    processes = [
        OracleHarness(
            pid, n, (pid + seed) % 2, t,
            silent_every is None or pid % silent_every != 1,
            consensus,
        )
        for pid in range(n)
    ]
    copies = FlatCopyRecorder()
    network = SyncNetwork(
        processes,
        adversary=ADVERSARIES[adversary](seed),
        t=t,
        seed=seed,
        observers=[copies],
    )
    result = network.run()
    return processes, copies, result


def accepted_maps(processes):
    """Every process's accepted sources and values, in acceptance order."""
    return [list(process.accepted[0].items()) for process in processes]


@pytest.mark.parametrize("n", [8, 16, 33])
@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize(
    "silent_every", [None, 3], ids=["all-sources", "every-third-silent"]
)
def test_column_receive_matches_the_per_copy_original(n, adversary, silent_every):
    """``silent_every=3``: pids 1, 4, 7, ... never send (non-participating
    sources), so ``len(accepted) == n`` never holds and every later round
    walks -- or now skips -- relay packs of held sources."""
    for seed in (1, 2):
        args = (n, adversary, seed, silent_every)
        old_processes, old_copies, old_result = run(
            reference_dolev_strong_consensus, *args
        )
        new_processes, new_copies, new_result = run(dolev_strong_consensus, *args)
        assert new_copies.sent == old_copies.sent  # relay packs, flat order
        assert new_copies.delivered == old_copies.delivered
        assert accepted_maps(new_processes) == accepted_maps(old_processes)
        assert new_result.decisions == old_result.decisions
        assert new_result.faulty == old_result.faulty
        assert new_result.metrics.summary() == old_result.metrics.summary()
