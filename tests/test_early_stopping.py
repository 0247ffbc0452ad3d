"""Tests for the early-stopping variant of Algorithm 1."""

import pytest

from repro.adversary import (
    SilenceAdversary,
    StaticCrashAdversary,
    VoteBalancingAdversary,
)
from repro.core import EarlyStoppingConsensus
from repro.harness import execute
from repro.params import ProtocolParams

PARAMS = ProtocolParams.practical()


def mixed(n):
    return [pid % 2 for pid in range(n)]


class TestCorrectness:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity(self, bit):
        run = execute("early-stopping", [bit] * 48, t=1, seed=1)
        assert run.decision == bit

    def test_validity_zero_randomness(self):
        run = execute("early-stopping", [1] * 48, t=1, seed=2)
        assert run.metrics.random_bits == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agreement_balanced(self, seed):
        run = execute("early-stopping", mixed(64), t=2, seed=seed)
        assert run.decision in (0, 1)

    def test_agreement_under_silence(self):
        n = 64
        t = PARAMS.max_faults(n)
        run = execute(
            "early-stopping", mixed(n), t=t, adversary=SilenceAdversary(range(t)), seed=3
        )
        assert run.decision in (0, 1)

    def test_agreement_under_balancer(self):
        n = 96
        t = PARAMS.max_faults(n)
        run = execute(
            "early-stopping", mixed(n), t=t, adversary=VoteBalancingAdversary(seed=4), seed=4
        )
        assert run.decision in (0, 1)

    def test_agreement_under_staggered_crashes(self):
        n = 64
        t = PARAMS.max_faults(n)
        run = execute(
            "early-stopping", mixed(n),
            t=t,
            adversary=StaticCrashAdversary({7 * k: [k] for k in range(t)}),
            seed=5,
        )
        assert run.decision in (0, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_with_ready_suppression(self, seed):
        """The silence adversary also suppresses faulty READY broadcasts,
        so exit epochs can differ; agreement must survive the desync."""
        n = 64
        t = PARAMS.max_faults(n)
        run = execute(
            "early-stopping", [1] * n, t=t, adversary=SilenceAdversary(range(t)),
            seed=100 + seed,
        )
        assert run.decision == 1


class TestEarlyExit:
    def test_unanimous_exits_after_first_epoch(self):
        run = execute("early-stopping", [1] * 64, t=2, seed=6)
        exits = {process.exited_epoch for process in run.processes}
        assert exits == {0}

    def test_unanimous_beats_fixed_budget(self):
        fixed = execute("algorithm1", [1] * 64, t=2, seed=7)
        adaptive = execute("early-stopping", [1] * 64, t=2, seed=7)
        assert (
            adaptive.result.time_to_agreement()
            < fixed.result.time_to_agreement() / 2
        )

    def test_balanced_needs_more_epochs_than_unanimous(self):
        unanimous = execute("early-stopping", [1] * 64, t=2, seed=8)
        balanced = execute("early-stopping", mixed(64), t=2, seed=8)
        assert max(
            p.exited_epoch for p in balanced.processes
        ) >= max(p.exited_epoch for p in unanimous.processes)

    def test_exit_epoch_exposed_and_bounded(self):
        run = execute("early-stopping", mixed(48), t=1, seed=9)
        budget = run.processes[0].num_epochs
        for process in run.processes:
            assert process.exited_epoch is not None
            assert 0 <= process.exited_epoch <= budget

    def test_poll_adds_one_round_per_epoch(self):
        process = execute(
            "early-stopping", [1] * 48, t=1, seed=10
        ).processes[0]
        base = execute("algorithm1", [1] * 48, t=1, seed=10).processes[0]
        assert process.epoch_rounds() == base.epoch_rounds() + 1

    def test_time_metric_reflects_early_exit(self):
        run = execute("early-stopping", [1] * 64, t=2, seed=11)
        epoch_len = run.processes[0].epoch_rounds()
        # One epoch + dissemination + decide resume, nothing more.
        assert run.result.time_to_agreement() <= epoch_len + 3


class TestPublicState:
    def test_a_run_declares_no_new_attribute(self):
        """The full-information adversary reads protocol state off public
        attributes declared in ``__init__``; the poll count is a local of
        ``program`` (the parent grew a hidden ``_ready_seen`` on early
        exit)."""
        run = execute("early-stopping", [1] * 36, t=1, seed=6)
        declared = set(vars(EarlyStoppingConsensus(0, 36, 1, t=1)))
        for process in run.processes:
            assert process.exited_epoch == 0
            assert set(vars(process)) == declared

    def test_poll_and_shared_tail_read_by_column(self, materialized):
        """READY counts, the dissemination round and the inoperative wait
        build no ``Message`` from an inbox (no Dolev-Strong ran; its
        early-exit scan still iterates messages)."""
        run = execute(
            "early-stopping", mixed(36), t=1, adversary=SilenceAdversary(range(1)), seed=3
        )
        assert any(p.used_fallback for p in run.processes)
        assert not run.ran_deterministic_fallback
        assert materialized == []
