"""Tests for the Dolev-Strong-style chain consensus (baseline + fallback)."""

import pytest

from repro.adversary import (
    RandomOmissionAdversary,
    SilenceAdversary,
    StaticCrashAdversary,
)
from repro.baselines import dolev_strong
from repro.baselines.dolev_strong import (
    TAG_DS,
    DolevStrongProcess,
    _valid_record,
    dolev_strong_consensus,
)
from repro.runtime import (
    CountingRandom,
    Message,
    ProcessEnv,
    SyncNetwork,
    SyncProcess,
)


def run_ds(inputs, t, adversary=None, seed=0):
    n = len(inputs)
    processes = [
        DolevStrongProcess(pid, n, inputs[pid], t) for pid in range(n)
    ]
    network = SyncNetwork(processes, adversary=adversary, t=t, seed=seed)
    return network.run(), processes


class TestChainValidation:
    def test_valid_first_round_record(self):
        assert _valid_record((3, 1, (3,)), 1, sender=3, receiver=0, n=8)

    def test_wrong_length_rejected(self):
        assert not _valid_record((3, 1, (3,)), 2, sender=3, receiver=0, n=8)

    def test_wrong_source_rejected(self):
        assert not _valid_record((3, 1, (4,)), 1, sender=4, receiver=0, n=8)

    def test_wrong_sender_rejected(self):
        assert not _valid_record((3, 1, (3, 5)), 2, sender=6, receiver=0, n=8)

    def test_duplicate_relayers_rejected(self):
        assert not _valid_record((3, 1, (3, 3)), 2, sender=3, receiver=0, n=8)

    def test_receiver_in_chain_rejected(self):
        assert not _valid_record((3, 1, (3, 0)), 2, sender=0, receiver=0, n=8)

    def test_non_binary_value_rejected(self):
        assert not _valid_record((3, 7, (3,)), 1, sender=3, receiver=0, n=8)

    def test_malformed_rejected(self):
        assert not _valid_record("junk", 1, sender=0, receiver=1, n=8)
        assert not _valid_record((1, 2), 1, sender=0, receiver=1, n=8)

    @pytest.mark.parametrize("source", [8, -1, 999, True, 3.0, "3", None, [3]])
    def test_source_that_is_not_a_pid_rejected(self, source):
        record = (source, 1, (source,))
        assert not _valid_record(record, 1, sender=source, receiver=0, n=8)

    @pytest.mark.parametrize("relayer", [8, -1, True, 2.0, "2", None, [2]])
    def test_relayer_that_is_not_a_pid_rejected(self, relayer):
        record = (3, 1, (3, relayer, 5))
        assert not _valid_record(record, 3, sender=5, receiver=0, n=8)
        assert _valid_record((3, 1, (3, 2, 5)), 3, sender=5, receiver=0, n=8)


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

    def test_fault_free_run_validates_each_record_once(self, monkeypatch):
        """Count guard: n·(n−1) chain walks per run, not n²·(n−1) — a source
        is looked up before its chain is walked, and a full house stops the
        read."""
        calls = []

        def counting(*args):
            calls.append(args)
            return _valid_record(*args)

        monkeypatch.setattr(dolev_strong, "_valid_record", counting)
        n = 32
        result, _ = run_ds([pid % 2 for pid in range(n)], t=4)
        assert result.agreement_value() == 1
        assert 0 < len(calls) <= n * (n - 1)

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
