"""Tests for the Bar-Joseph/Ben-Or-style voting baseline."""

import pytest

from repro.adversary import SilenceAdversary, StaticCrashAdversary
from repro.baselines import BenOrVotingProcess
from repro.baselines.ben_or import TAG_DECIDE, TAG_VOTE
from repro.harness import execute
from repro.runtime import CountingRandom, Message, ProcessEnv

from .delivery_oracle import clear, queued


class TestConstruction:
    def test_rejects_bad_bit(self):
        with pytest.raises(ValueError):
            BenOrVotingProcess(0, 4, 2)

    def test_default_threshold_scales_with_sqrt_n(self):
        # In the sqrt regime (n >= ~20) the default follows sqrt(n).
        small = BenOrVotingProcess(0, 64, 1)
        large = BenOrVotingProcess(0, 1024, 1)
        assert large.threshold == 4 * small.threshold

    def test_decide_condition_reachable_at_tiny_n(self):
        # The (n-2)/4 cap keeps margin > 2*threshold achievable: the
        # maximum margin is n/2.
        for n in (8, 10, 16, 20):
            process = BenOrVotingProcess(0, n, 1)
            assert 2 * process.threshold < n / 2


class TestCorrectness:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity(self, bit):
        result = execute("ben-or", [bit] * 20, t=0, seed=1).result
        assert result.agreement_value() == bit

    def test_strong_majority_decides_fast(self):
        inputs = [1] * 18 + [0] * 2
        result = execute("ben-or", inputs, t=0, seed=2).result
        assert result.agreement_value() == 1
        assert result.time_to_agreement() <= 6

    @pytest.mark.parametrize("seed", range(4))
    def test_balanced_inputs_agree(self, seed):
        result = execute("ben-or", [pid % 2 for pid in range(24)], t=0, seed=seed).result
        assert result.agreement_value() in (0, 1)

    def test_agreement_under_crashes(self):
        result = execute(
            "ben-or", [pid % 2 for pid in range(24)],
            t=4,
            adversary=StaticCrashAdversary({1: [0, 1], 3: [2, 3]}),
            seed=5,
        ).result
        assert result.agreement_value() in (0, 1)

    def test_agreement_under_silence(self):
        result = execute(
            "ben-or", [pid % 2 for pid in range(24)],
            t=4,
            adversary=SilenceAdversary(range(4)),
            seed=6,
        ).result
        assert result.agreement_value() in (0, 1)


class TestCoinThrottling:
    def test_coinless_processes_never_draw(self):
        coin_pids = frozenset({0, 1})
        result = execute(
            "ben-or", [pid % 2 for pid in range(16)], t=0,
            coin_pids=coin_pids,
            seed=7,
        ).result
        for pid, (calls, _bits) in enumerate(result.randomness_per_process):
            if pid not in coin_pids:
                assert calls == 0

    def test_unrestricted_runs_draw_coins_on_balanced_inputs(self):
        result = execute("ben-or", [pid % 2 for pid in range(16)], t=0, seed=8).result
        assert result.metrics.random_calls > 0

    def test_unanimous_runs_draw_no_coins(self):
        result = execute("ben-or", [1] * 16, t=0, seed=9).result
        assert result.metrics.random_calls == 0

    def test_phase_cutoff_terminates(self):
        """Even a fully deterministic balanced system ends at max_phases."""
        result = execute(
            "ben-or", [pid % 2 for pid in range(10)], t=0,
            coin_pids=frozenset(),
            max_phases=5,
            seed=10,
        ).result
        assert result.all_terminated
        assert result.metrics.rounds <= 5 + 3


class TestReceiveTally:
    """The receive step tallies payloads by value; these pin the two places
    where a tally could differ from reading the copies one by one."""

    @staticmethod
    def first_phase(input_bit, payloads, threshold=0.4):
        """Run one process's first phase on an inbox of ``payloads`` (one
        per sender 1, 2, ...); returns (process, records queued after)."""
        n = len(payloads) + 1
        process = BenOrVotingProcess(0, n, input_bit, threshold=threshold)
        env = ProcessEnv(0, n, CountingRandom(0))
        program = process.program(env)
        next(program)
        clear(env)
        program.send(
            [
                Message(sender, 0, payload)
                for sender, payload in enumerate(payloads, start=1)
            ]
        )
        return process, queued(env)

    def test_last_decide_copy_in_sender_order_wins(self):
        """Two DECIDE values can coexist after the phase-budget cut-off;
        the adopted one is the last copy's, not the last *distinct* one's
        (a first-seen-ordered tally alone would say 1 here)."""
        process, outbox = self.first_phase(
            1, [(TAG_DECIDE, 0), (TAG_DECIDE, 1), (TAG_VOTE, 1), (TAG_DECIDE, 0)]
        )
        assert process.decided and process.b == 0
        assert [record.payload for record in outbox] == [(TAG_DECIDE, 0)]

    def test_malformed_payloads_are_skipped_not_raised(self):
        """An unhashable list, a 3-tuple and an out-of-model value are not
        votes.  Counted as votes for 1 the first two would make the margin
        0 (a coin flip); counted as a vote for 2 the last alone would make
        it +0.5.  Skipped it is -1 and the process decides 0 on the
        spot."""
        process, outbox = self.first_phase(
            0, [[TAG_VOTE, 1], (TAG_VOTE, 1, 1), (TAG_VOTE, 0), (TAG_VOTE, 2)]
        )
        assert process.decided and process.b == 0
        assert [record.payload for record in outbox] == [(TAG_DECIDE, 0)]
