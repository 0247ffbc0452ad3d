"""Tests for the rollout-based valency adversary and the engine fork."""

from repro.adversary import RecordingAdversary, SilenceAdversary
from repro.baselines.ben_or import BenOrVotingProcess
from repro.lowerbound import (
    KeepSilencingFaulty,
    RolloutConfig,
    RolloutValencyAdversary,
    replay_prefix,
)
from repro.runtime import SyncNetwork

N, T = 16, 4
INPUTS = [1] * 11 + [0] * 5


def make_processes(max_phases=60):
    return [
        BenOrVotingProcess(pid, N, INPUTS[pid], max_phases=max_phases)
        for pid in range(N)
    ]


class TestEngineFork:
    def test_prefix_identical_suffix_divergent(self):
        """Same seed + same fork round but different fork seeds: metrics
        agree before the fork and (typically) diverge after."""

        def run(fork_seed):
            network = SyncNetwork(
                make_processes(),
                t=0,
                seed=9,
                reseed_at=(3, fork_seed),
            )
            result = network.run()
            return result.metrics.messages_per_round, result.decisions

        per_round_a, decisions_a = run(1)
        per_round_b, decisions_b = run(2)
        assert per_round_a[:3] == per_round_b[:3]
        # The runs are balanced enough that the forked coins change the
        # trajectory; lengths or decisions differ for these seeds.
        assert (per_round_a != per_round_b) or (decisions_a != decisions_b)

    def test_no_fork_is_deterministic(self):
        def run():
            network = SyncNetwork(make_processes(), t=0, seed=9)
            return network.run().decisions

        assert run() == run()


class TestScriptedAdversary:
    def test_replays_recorded_run_exactly(self):
        recording = RecordingAdversary(SilenceAdversary([0, 1]))
        network = SyncNetwork(
            make_processes(), adversary=recording, t=T, seed=4
        )
        original = network.run()

        script = [action for _, action in recording.actions]
        replay_network = SyncNetwork(
            make_processes(),
            adversary=replay_prefix(script),
            t=T,
            seed=4,
        )
        replay = replay_network.run()
        assert replay.decisions == original.decisions
        assert replay.metrics.bits_sent == original.metrics.bits_sent
        assert replay.faulty == original.faulty

    def test_fallback_keeps_silencing(self):
        """Past the script, the default suffix policy keeps faulty traffic
        omitted instead of letting silenced processes speak again."""
        recording = RecordingAdversary(SilenceAdversary([0]))
        network = SyncNetwork(
            make_processes(), adversary=recording, t=1, seed=5
        )
        network.run()
        # Replay only the first 2 rounds of the script; the fallback must
        # keep omitting process 0's messages afterwards.
        script = [action for _, action in recording.actions][:2]
        replay_network = SyncNetwork(
            make_processes(),
            adversary=replay_prefix(script, KeepSilencingFaulty()),
            t=1,
            seed=5,
        )
        result = replay_network.run()
        assert result.metrics.messages_omitted > 0


class TestRolloutAdversary:
    def test_stalls_the_vote(self):
        """The searched strategy delays decisions at least as long as no
        adversary at all (and in practice pins the vote to the cap)."""
        baseline = SyncNetwork(make_processes(), t=0, seed=3).run()
        baseline_rounds = baseline.time_to_agreement()

        adversary = RolloutValencyAdversary(
            make_processes,
            engine_seed=3,
            config=RolloutConfig(rollouts=4, horizon=80),
            seed=1,
        )
        attacked = SyncNetwork(
            make_processes(), adversary=adversary, t=T, seed=3,
            max_rounds=200,
        ).run()
        try:
            attacked_rounds = attacked.time_to_agreement()
        except AssertionError:
            attacked_rounds = attacked.metrics.rounds
        assert attacked_rounds >= baseline_rounds
        assert adversary.evaluations > 0

    def test_budget_respected(self):
        adversary = RolloutValencyAdversary(
            make_processes,
            engine_seed=3,
            config=RolloutConfig(rollouts=2, horizon=60),
            seed=2,
        )
        result = SyncNetwork(
            make_processes(), adversary=adversary, t=2, seed=3,
            max_rounds=150,
        ).run()
        assert len(result.faulty) <= 2

    def test_zero_budget_degenerates_to_noop(self):
        adversary = RolloutValencyAdversary(
            make_processes,
            engine_seed=3,
            config=RolloutConfig(rollouts=2, horizon=60),
            seed=3,
        )
        result = SyncNetwork(
            make_processes(), adversary=adversary, t=0, seed=3
        ).run()
        assert result.faulty == frozenset()
        assert adversary.evaluations == 0  # menu collapses to the no-op
