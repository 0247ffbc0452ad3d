"""Differential test: ``dolev_strong_consensus`` vs its per-copy original.

The receive step reads its inbox by column, walks each chain once to both
check it and size its relay, holds sources in a byte per pid, idles after
a full house and, from round 2 on, skips a relay pack whose sources are
all held without entering Python per record.  This module keeps the
original -- one ``Message`` per copy, every record of every pack walked,
the validator in its first order, every pack sized by ``payload_bits`` --
verbatim as the executable specification, and checks that the two accept
the same sources with the same values, queue the same relay packs in the
same flat copy order and decide alike: under random omissions, chaotic
adversaries and non-participating sources, and on hand-built inboxes that
mix valid relays with junk.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import ChaosAdversary, RandomOmissionAdversary
from repro.baselines.dolev_strong import TAG_DS, dolev_strong_consensus
from repro.runtime import (
    MESSAGE_OVERHEAD_BITS,
    CountingRandom,
    Message,
    ProcessEnv,
    SyncNetwork,
    SyncProcess,
    payload_bits,
)

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
    """``yield from program``, keeping a reference to its held state (the
    reference's ``accepted`` dict, the step's ``held`` bytes; a silent
    participant has neither) once the program has built it."""
    next(program)
    local = program.gi_frame.f_locals
    sink.append(local.get("held", local.get("accepted")))
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


def held_bytes(state, n):
    """A tapped held state as ``bytes(n)``: 0 for a source not held, 1 for
    one held at 0, 2 for one held at 1."""
    if isinstance(state, dict):
        held = bytearray(n)
        for source, value in state.items():
            held[source] = 2 if value == 1 else 1
        return bytes(held)
    return bytes(n) if state is None else bytes(state)


def accepted_maps(processes):
    """Every process's accepted sources and values."""
    return [held_bytes(process.accepted[0], process.n) for process in processes]


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


def drive(consensus, pid, n, t, input_bit, inboxes):
    """Hand-feed one participant its ``t + 1`` inboxes; returns its env
    (the packs it queued), its held state and its decision."""
    env = ProcessEnv(pid, n, CountingRandom(0))
    tap = []
    program = tapped(consensus(env, t, input_bit), tap)
    next(program)
    for inbox in inboxes[:-1]:
        program.send(inbox)
    with pytest.raises(StopIteration) as done:
        program.send(inboxes[-1])
    return env, held_bytes(tap[0], n), done.value.value


#: Values a record may carry: the two bits, and look-alikes that are not.
VALUES = (0, 1, True, False, 1.0, 0.0, 2, -1)


@st.composite
def records(draw, n, round_index, sender, receiver):
    """A relay ``sender`` could send ``receiver`` in ``round_index``: valid,
    or broken in one way (length, a duplicate, negative or >= n relayer, the
    receiver or a bool in the chain, a value that is not a bit, a source off
    the chain, a record of the wrong shape)."""
    others = [q for q in range(n) if q not in (sender, receiver)]
    order = draw(st.permutations(others))
    chain = list(order[: round_index - 1]) + [sender]
    source, value = chain[0], draw(st.sampled_from((0, 1)))
    flaw = draw(st.sampled_from((None,) * 8 + (
        "long", "short", "duplicate", "relayer", "receiver", "value",
        "source", "shape", "list-chain",
    )))
    spot = draw(st.integers(0, len(chain) - 1))
    if flaw == "long":
        chain.append(draw(st.sampled_from(others or [sender])))
    elif flaw == "short":
        chain.pop(0)
    elif flaw == "duplicate":
        chain[spot] = chain[draw(st.integers(0, len(chain) - 1))]
    elif flaw == "relayer":
        chain[spot] = draw(st.sampled_from((-1, -n, n, n + 3, True, False)))
    elif flaw == "receiver":
        chain[spot] = receiver
    elif flaw == "value":
        value = draw(st.sampled_from(VALUES))
    elif flaw == "source":
        source = draw(st.sampled_from((-1, n, True, *range(n))))
    if chain:
        source = source if flaw == "source" else chain[0]
    if flaw == "shape":
        return draw(st.sampled_from(((source, value), (source, value, tuple(chain), 0))))
    return (source, value, chain if flaw == "list-chain" else tuple(chain))


@st.composite
def scenarios(draw):
    """A participant and its ``t + 1`` hand-built inboxes (n <= 12,
    t <= 4): per round a sender-sorted list of packs of relays, valid and
    junk, plus payloads that are not relay packs at all."""
    n = draw(st.integers(2, 12))
    t = draw(st.integers(0, min(4, n - 1)))
    pid = draw(st.integers(0, n - 1))
    input_bit = draw(st.sampled_from((0, 1)))
    inboxes = []
    for round_index in range(1, t + 2):
        everyone = [q for q in range(n) if q != pid]
        senders = draw(st.one_of(
            st.just(everyone), st.lists(st.sampled_from(everyone), max_size=n)
        ))
        inbox = []
        for sender in sorted(senders):
            pack = tuple(draw(st.lists(records(n, round_index, sender, pid), max_size=4)))
            payload = draw(st.sampled_from((
                (TAG_DS, pack), (TAG_DS, pack), (TAG_DS, pack),
                [TAG_DS, pack], (TAG_DS + 1, pack), (TAG_DS,), "junk",
            )))
            inbox.append(Message(sender, pid, payload, 1))
        inboxes.append(inbox)
    return pid, n, t, input_bit, inboxes


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_receive_step_matches_the_reference_on_junk(scenario):
    """The new step and the per-record original accept the same sources
    with the same values, queue equal packs at equal sizes and decide
    alike; every pack's stated size is its ``payload_bits``."""
    new_env, new_held, new_decision = drive(dolev_strong_consensus, *scenario)
    old_env, old_held, old_decision = drive(reference_dolev_strong_consensus, *scenario)
    assert new_held == old_held
    assert new_decision == old_decision
    assert new_env.columns == old_env.columns
    _, _, packs, bits = new_env.columns
    assert bits == [payload_bits(pack) + MESSAGE_OVERHEAD_BITS for pack in packs]
