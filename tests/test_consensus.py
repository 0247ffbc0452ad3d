"""Integration tests for OptimalOmissionsConsensus (Algorithm 1).

Agreement / validity / termination across the adversary gallery, plus the
randomness accounting and fallback-path behaviour the paper specifies.
"""

import pytest

from repro import ProtocolParams, execute
from repro.adversary import (
    GroupKnockoutAdversary,
    RandomOmissionAdversary,
    SilenceAdversary,
    StaticCrashAdversary,
    VoteBalancingAdversary,
)
from repro.core import cached_sqrt_partition, epoch_rounds

PARAMS = ProtocolParams.practical()


def mixed(n):
    return [pid % 2 for pid in range(n)]


class TestValidity:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_unanimous_decides_input(self, bit):
        run = execute("algorithm1", [bit] * 40, t=1, seed=3)
        assert run.decision == bit

    @pytest.mark.parametrize("bit", [0, 1])
    def test_unanimous_uses_zero_randomness(self, bit):
        """Theorem 5's validity argument: with one value in the system no
        process ever touches its random source."""
        run = execute("algorithm1", [bit] * 40, t=1, seed=3)
        assert run.metrics.random_bits == 0

    def test_unanimous_under_silence_adversary(self):
        n = 64
        t = PARAMS.max_faults(n)
        run = execute(
            "algorithm1", [1] * n, t=t, adversary=SilenceAdversary(range(t)), seed=4
        )
        assert run.decision == 1

    def test_unanimous_under_balancer(self):
        n = 64
        t = PARAMS.max_faults(n)
        run = execute(
            "algorithm1", [0] * n, t=t, adversary=VoteBalancingAdversary(seed=1), seed=5
        )
        assert run.decision == 0


class TestAgreementUnderAdversaries:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_adversary(self, seed):
        run = execute("algorithm1", mixed(48), t=1, seed=seed)
        assert run.decision in (0, 1)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_silence(self, seed):
        n = 64
        t = PARAMS.max_faults(n)
        run = execute(
            "algorithm1", mixed(n), t=t, adversary=SilenceAdversary(range(t)), seed=seed
        )
        assert run.decision in (0, 1)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_omissions(self, seed):
        n = 64
        t = PARAMS.max_faults(n)
        run = execute(
            "algorithm1", mixed(n),
            t=t,
            adversary=RandomOmissionAdversary(0.7, seed=seed),
            seed=seed,
        )
        assert run.decision in (0, 1)

    def test_staggered_crashes(self):
        n = 64
        t = PARAMS.max_faults(n)
        schedule = {5 * k: [k] for k in range(t)}
        run = execute(
            "algorithm1", mixed(n), t=t, adversary=StaticCrashAdversary(schedule), seed=6
        )
        assert run.decision in (0, 1)

    def test_vote_balancer(self):
        n = 96
        t = PARAMS.max_faults(n)
        run = execute(
            "algorithm1", mixed(n), t=t, adversary=VoteBalancingAdversary(seed=2), seed=7
        )
        assert run.decision in (0, 1)

    def test_group_knockout(self):
        n = 100
        t = PARAMS.max_faults(n)
        partition = cached_sqrt_partition(n)
        run = execute(
            "algorithm1", mixed(n),
            t=t,
            adversary=GroupKnockoutAdversary(partition.group_members(0)),
            seed=8,
        )
        assert run.decision in (0, 1)


class TestComplexityAccounting:
    def test_randomness_at_most_one_bit_per_process_per_epoch(self):
        n = 64
        run = execute("algorithm1", mixed(n), t=2, seed=9)
        epochs = run.processes[0].num_epochs
        assert run.metrics.random_bits <= n * epochs
        assert run.metrics.random_calls == run.metrics.random_bits

    def test_fast_path_round_count_formula(self):
        """Without the fallback, rounds = epochs * epoch_rounds + 1
        dissemination round + the final decide resume."""
        n = 49
        run = execute("algorithm1", [1] * n, t=1, seed=10)
        assert not any(p.used_fallback for p in run.processes)
        epochs = run.processes[0].num_epochs
        expected = epochs * epoch_rounds(n, PARAMS) + 1
        assert run.result.time_to_agreement() == expected + 1

    def test_time_metric_ignores_faulty_stragglers(self):
        n = 64
        t = PARAMS.max_faults(n)
        run = execute(
            "algorithm1", mixed(n), t=t, adversary=SilenceAdversary(range(t)), seed=11
        )
        assert run.result.time_to_agreement() <= run.metrics.rounds

    def test_deterministic_given_seed(self):
        a = execute("algorithm1", mixed(48), t=1, seed=12)
        b = execute("algorithm1", mixed(48), t=1, seed=12)
        assert a.decision == b.decision
        assert a.metrics.bits_sent == b.metrics.bits_sent
        assert a.metrics.random_bits == b.metrics.random_bits


class TestFallbackPath:
    def test_zero_epochs_forces_dolev_strong(self):
        """num_epochs=0 sends every operative process into the fallback —
        agreement must still hold with probability 1."""
        n = 33
        t = PARAMS.max_faults(n)
        run = execute("algorithm1", mixed(n), t=t, num_epochs=0, seed=13)
        assert any(p.used_fallback for p in run.processes)
        assert run.decision in (0, 1)

    def test_zero_epochs_unanimous_validity(self):
        n = 33
        run = execute("algorithm1", [1] * n, t=1, num_epochs=0, seed=14)
        assert run.decision == 1

    def test_zero_epochs_with_silence_adversary(self):
        n = 64
        t = PARAMS.max_faults(n)
        run = execute(
            "algorithm1", mixed(n),
            t=t,
            num_epochs=0,
            adversary=SilenceAdversary(range(t)),
            seed=15,
        )
        assert run.decision in (0, 1)


class TestStateExposure:
    def test_process_state_visible(self):
        run = execute("algorithm1", mixed(36), t=1, seed=16)
        process = run.processes[0]
        assert process.b in (0, 1)
        assert process.epoch == process.num_epochs
        assert isinstance(process.operative, bool)

    def test_small_systems(self):
        for n in (2, 3, 5, 9):
            run = execute("algorithm1", [pid % 2 for pid in range(n)], t=0, seed=17)
            assert run.decision in (0, 1)

    def test_invalid_input_bit_rejected(self):
        with pytest.raises(ValueError):
            execute("algorithm1", [2, 0, 1], t=0)

    def test_excess_fault_budget_rejected(self):
        with pytest.raises(ValueError):
            execute("algorithm1", mixed(32), t=5)


class TestVoteRuleBinding:
    """Lines 9-12 as the engine runs them: fault-free, every process of an
    epoch votes on the same ``(ones, zeros)``, so the deterministic bands
    leave no room for a split (the exact-chain comparison is separate)."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_every_epoch_shares_one_view(self, n, seed, monkeypatch):
        from repro.core import consensus

        rule = consensus.apply_vote_rule
        votes = {}  # a process's metered source (env.random) -> its votes

        def spy(ones, zeros, params, coin):
            outcome = rule(ones, zeros, params, coin)
            votes.setdefault(coin, []).append((ones, zeros, outcome))
            return outcome

        monkeypatch.setattr(consensus, "apply_vote_rule", spy)
        run = execute("algorithm1", mixed(n), seed=seed)
        assert run.result.faulty == frozenset()
        assert len(votes) == n  # every process voted
        epochs = list(zip(*votes.values(), strict=True))  # equal lengths
        assert epochs
        for epoch in epochs:
            assert len({(ones, zeros) for ones, zeros, _ in epoch}) == 1
            assert len(
                {out.bit for _, _, out in epoch if not out.used_coin}
            ) <= 1


class TestChainBinding:
    """Lines 9-12 as the exact epoch chain models them
    (``repro.lowerbound.epoch_chain``): fault-free, each epoch's next shared
    count is the chain's transition of this epoch's shared count and the
    coins drawn, and the chain's cost is zero exactly when the next epoch
    flips coins."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_next_count_is_the_chain_transition(self, n, seed, monkeypatch):
        from repro.core import consensus
        from repro.lowerbound import epoch_step

        rule = consensus.apply_vote_rule
        votes = {}  # a process's metered source (env.random) -> its votes

        def spy(ones, zeros, params, coin):
            outcome = rule(ones, zeros, params, coin)
            votes.setdefault(coin, []).append((ones, ones + zeros, outcome))
            return outcome

        monkeypatch.setattr(consensus, "apply_vote_rule", spy)
        run = execute("algorithm1", mixed(n), seed=seed)
        assert run.result.faulty == frozenset()
        epochs = list(zip(*votes.values(), strict=True))
        assert len(epochs) >= 2
        for epoch, following in zip(epochs, epochs[1:]):
            (ones, total), = {(o, m) for o, m, _ in epoch}  # one shared view
            coin_ones = sum(out.bit for _, _, out in epoch if out.used_coin)
            next_ones, cost = epoch_step(ones, total, coin_ones)
            assert {(o, m) for o, m, _ in following} == {(int(next_ones), total)}
            assert (cost == 0) == all(out.used_coin for _, _, out in following)
