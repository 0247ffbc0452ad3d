"""Tests for the Dolev-Strong-style chain consensus (baseline + fallback)."""

import inspect
import re
import sys
import weakref

import pytest

from repro.adversary import (
    RandomOmissionAdversary,
    SilenceAdversary,
    StaticCrashAdversary,
)
from repro.baselines.dolev_strong import (
    TAG_DS,
    DolevStrongProcess,
    dolev_strong_consensus,
)
from repro.runtime import (
    ColumnInbox,
    CountingRandom,
    Message,
    ProcessEnv,
    SyncNetwork,
    SyncProcess,
)
from repro.runtime.delivery import CopyColumns


def run_ds(inputs, t, adversary=None, seed=0):
    n = len(inputs)
    processes = [
        DolevStrongProcess(pid, n, inputs[pid], t) for pid in range(n)
    ]
    network = SyncNetwork(processes, adversary=adversary, t=t, seed=seed)
    return network.run(), processes


def accepts(record, round_index, sender, receiver, n):
    """Whether the receive step accepts ``record``, alone in a pack from
    ``sender`` in ``round_index``: an accepted record is relayed in the
    next round, with the receiver appended to its chain."""
    env = ProcessEnv(receiver, n, CountingRandom(0))
    program = dolev_strong_consensus(env, round_index, 0)
    next(program)
    for _ in range(1, round_index):
        program.send([])
    program.send([Message(sender, receiver, (TAG_DS, (record,)), 1)])
    packs = env.columns[2]
    if len(packs) == 1:  # the receiver's own round-1 pack only
        return False
    source, value, chain = record
    assert packs[1:] == [(TAG_DS, ((source, value, chain + (receiver,)),))]
    return True


class TestChainValidation:
    def test_valid_first_round_record(self):
        assert accepts((3, 1, (3,)), 1, sender=3, receiver=0, n=8)

    def test_wrong_length_rejected(self):
        assert not accepts((3, 1, (3,)), 2, sender=3, receiver=0, n=8)

    def test_wrong_source_rejected(self):
        assert not accepts((3, 1, (4,)), 1, sender=4, receiver=0, n=8)

    def test_wrong_sender_rejected(self):
        assert not accepts((3, 1, (3, 5)), 2, sender=6, receiver=0, n=8)

    def test_duplicate_relayers_rejected(self):
        assert not accepts((3, 1, (3, 3)), 2, sender=3, receiver=0, n=8)

    def test_receiver_in_chain_rejected(self):
        assert not accepts((3, 1, (3, 0)), 2, sender=0, receiver=0, n=8)

    def test_non_binary_value_rejected(self):
        assert not accepts((3, 7, (3,)), 1, sender=3, receiver=0, n=8)

    def test_malformed_rejected(self):
        assert not accepts("junk", 1, sender=0, receiver=1, n=8)
        assert not accepts((1, 2), 1, sender=0, receiver=1, n=8)

    @pytest.mark.parametrize("source", [8, -1, 999, True, 3.0, "3", None, [3]])
    def test_source_that_is_not_a_pid_rejected(self, source):
        record = (source, 1, (source,))
        assert not accepts(record, 1, sender=source, receiver=0, n=8)

    @pytest.mark.parametrize("relayer", [8, -1, True, 2.0, "2", None, [2]])
    def test_relayer_that_is_not_a_pid_rejected(self, relayer):
        record = (3, 1, (3, relayer, 5))
        assert not accepts(record, 3, sender=5, receiver=0, n=8)
        assert accepts((3, 1, (3, 2, 5)), 3, sender=5, receiver=0, n=8)


#: Records no chain check accepts, each with source 0 where it has one.
JUNK = ((0, 1), (0, 7, "x"), (0,), 0, "junk", None, ([0], 1, ([0],)))


def drive(pid, n, t, input_bit, inboxes):
    """Hand-feed one participant ``t + 1`` inboxes; returns its decision."""
    env = ProcessEnv(pid, n, CountingRandom(0))
    program = dolev_strong_consensus(env, t, input_bit)
    next(program)
    for inbox in inboxes[:-1]:
        program.send(inbox)
    with pytest.raises(StopIteration) as done:
        program.send(inboxes[-1])
    return done.value.value


class TestReceiveLoop:
    def test_forged_source_heading_a_consistent_chain_is_not_a_vote(self):
        """``(999, 1, (999, sender))`` from a real ``sender`` used to become
        a 17th source in the majority; two of them outvoted the receiver."""
        forged = tuple((fake, 1, (fake, 5)) for fake in (999, 998))
        inboxes = [[], [Message(5, 0, (TAG_DS, forged))], [], []]
        assert drive(0, 16, 3, 0, inboxes) == 0

    def test_malformed_record_with_an_accepted_source_is_skipped(self):
        good = (3, 1, (3,))
        inboxes = [[Message(3, 0, (TAG_DS, JUNK + (good,)))], []]
        assert drive(0, 4, 1, 1, inboxes) == 1

    @pytest.mark.parametrize("junk", [(0, 1, (0, 1)), *JUNK], ids=repr)
    def test_round_two_junk_crosses_the_held_pack_skip(self, junk):
        """From round 2 a pack is first checked for all-held sources.
        Junk there either raises, and the pack is walked, or reads as held
        or not held; the good relay beside it is accepted all the same (0
        against 1 is a tie, and ties go to 1).  A pack of held-source junk
        alone is skipped."""
        good = (2, 1, (2, 3))
        held = (TAG_DS, ((0, 1), (0, 7, "x"), (0,), (0, 1, (0, 1))))
        round_two = [Message(1, 0, held), Message(3, 0, (TAG_DS, (junk, good)))]
        assert drive(0, 4, 2, 0, [[], round_two, []]) == 1

    def test_full_house_stops_reading_without_leaving_lockstep(self):
        """With every source held the rest of the inbox is not even looked
        at (a payload that would raise is passed over), and the generator
        still consumes all ``t + 1`` rounds."""
        first = [Message(q, 0, (TAG_DS, ((q, 1, (q,)),))) for q in (1, 2)]
        unreadable = [Message(1, 0, (TAG_DS, None))]
        assert drive(0, 3, 2, 0, [first, unreadable, unreadable]) == 1

    def test_full_house_idles_without_the_last_inbox(self):
        """Once every source is held the generator idles in lockstep and
        keeps no reference to the inbox that completed the house (at n =
        2048 a round's inbox columns are megabytes per process)."""
        env = ProcessEnv(0, 3, CountingRandom(0))
        program = dolev_strong_consensus(env, 2, 0)
        next(program)
        packs = [(TAG_DS, ((q, 1, (q,)),)) for q in (1, 2)]
        inbox = ColumnInbox(CopyColumns.of([1, 2], [0, 0], packs, [1, 1]))
        last = weakref.ref(inbox)
        program.send(inbox)
        del inbox
        assert last() is None
        relays = ((1, 1, (1, 0)), (2, 1, (2, 0)))
        assert env.columns[2][-1] == (TAG_DS, relays)
        program.send(None)  # round 2's inbox: not read
        with pytest.raises(StopIteration) as done:
            program.send(None)
        assert done.value.value == 1

    def test_fault_free_run_validates_each_record_once(self):
        """Count guard: n·(n−1) chain walks per run, not n²·(n−1) — a source
        is looked up before its chain is walked, and a full house stops the
        read.  A walk is counted where it starts, by line tracing."""
        lines, first = inspect.getsourcelines(dolev_strong_consensus)
        starts = [
            first + offset for offset, line in enumerate(lines)
            if re.match(r"\s*bits = 0\b", line)
        ]
        assert len(starts) == 1
        code, walks = dolev_strong_consensus.__code__, []

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == starts[0]:
                walks.append(frame.f_lineno)
            return local

        def tracer(frame, event, arg):
            return local if frame.f_code is code else None

        n = 32
        sys.settrace(tracer)
        try:
            result, _ = run_ds([pid % 2 for pid in range(n)], t=4)
        finally:
            sys.settrace(None)
        assert result.agreement_value() == 1
        assert 0 < len(walks) <= n * (n - 1)

    def test_fault_free_run_reads_by_column(self, materialized):
        """Both traffic rounds are read as columns: no ``Message`` is built
        for any of the n·(n−1) copies of either (a loop over the inbox
        builds every one)."""
        result, _ = run_ds([pid % 2 for pid in range(32)], t=4)
        assert result.agreement_value() == 1
        assert materialized == []


class TestCorrectness:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity_unanimous(self, bit):
        result, _ = run_ds([bit] * 9, t=2)
        assert result.agreement_value() == bit

    def test_majority_without_faults(self):
        result, _ = run_ds([1, 1, 1, 0, 0], t=1)
        assert result.agreement_value() == 1

    def test_rounds_are_t_plus_one(self):
        result, _ = run_ds([1] * 8, t=3)
        assert result.time_to_agreement() == 5  # t+1 rounds + decide resume

    def test_agreement_under_silence(self):
        result, _ = run_ds(
            [pid % 2 for pid in range(12)], t=3,
            adversary=SilenceAdversary([0, 1, 2]),
        )
        assert result.agreement_value() in (0, 1)

    def test_agreement_under_random_omissions(self):
        for seed in range(3):
            result, _ = run_ds(
                [pid % 2 for pid in range(12)],
                t=3,
                adversary=RandomOmissionAdversary(0.5, seed=seed),
                seed=seed,
            )
            assert result.agreement_value() in (0, 1)

    def test_agreement_under_staggered_crashes(self):
        result, _ = run_ds(
            [pid % 2 for pid in range(12)],
            t=4,
            adversary=StaticCrashAdversary({0: [0], 1: [1], 2: [2], 3: [3]}),
        )
        assert result.agreement_value() in (0, 1)

    def test_validity_with_faulty_minority_opposing(self):
        """All non-faulty hold 1; the t faulty (holding 0) cannot outvote."""
        inputs = [0] * 3 + [1] * 10
        result, _ = run_ds(
            inputs, t=3, adversary=RandomOmissionAdversary(0.3, seed=1)
        )
        assert result.agreement_value() == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            DolevStrongProcess(0, 4, 2, 1)
        with pytest.raises(ValueError):
            DolevStrongProcess(0, 4, 1, 4)


class SubProtocolHarness(SyncProcess):
    """Runs the generator form with a participation flag (fallback shape)."""

    def __init__(self, pid, n, bit, t, participating):
        super().__init__(pid, n)
        self.bit = bit
        self.t = t
        self.participating = participating

    def program(self, env: ProcessEnv):
        decision = yield from dolev_strong_consensus(
            env, self.t, self.bit, participating=self.participating
        )
        env.decide(decision)
        return None


class TestSubProtocol:
    def test_non_participants_stay_silent_and_lockstep(self):
        n, t = 8, 2
        participating = [pid < 5 for pid in range(n)]
        processes = [
            SubProtocolHarness(pid, n, pid % 2, t, participating[pid])
            for pid in range(n)
        ]
        network = SyncNetwork(processes, t=0, seed=1)
        result = network.run()
        participant_decisions = {
            result.decisions[pid] for pid in range(5)
        }
        assert len(participant_decisions) == 1
        for pid in range(5, n):
            assert result.decisions[pid] is None

    def test_silent_sources_resolve_consistently(self):
        """Non-participating sources yield no accepted value anywhere, so
        participants still agree."""
        n, t = 6, 1
        processes = [
            SubProtocolHarness(pid, n, 1, t, participating=(pid != 0))
            for pid in range(n)
        ]
        network = SyncNetwork(processes, t=0, seed=2)
        result = network.run()
        decisions = {result.decisions[pid] for pid in range(1, n)}
        assert decisions == {1}
