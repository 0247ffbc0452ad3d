"""Tests for early-stopping terminating reliable broadcast."""

import pytest

from repro.adversary import (
    RandomOmissionAdversary,
    SilenceAdversary,
    StaticCrashAdversary,
)
from repro.baselines import BOTTOM, TRBProcess
from repro.harness import execute


class TestConstruction:
    def test_sender_needs_value(self):
        with pytest.raises(ValueError):
            TRBProcess(0, 8, sender=0, t=1, value=None)

    def test_validation(self):
        with pytest.raises(ValueError):
            TRBProcess(0, 8, sender=9, t=1, value=1)
        with pytest.raises(ValueError):
            TRBProcess(0, 8, sender=1, t=8)


class TestFaultFree:
    @pytest.mark.parametrize("t", [1, 3, 7])
    def test_integrity_and_agreement(self, t):
        result = execute("trb", n=24, sender=3, value=9, t=t, seed=1).result
        assert set(result.decisions.values()) == {9}

    def test_early_stopping_is_t_independent(self):
        """Without faults the QUIET quorum fires immediately: rounds do not
        grow with the budget t — the [34] early-stopping property."""
        rounds = [
            execute("trb", n=24, sender=0, value=5, t=t, seed=2).result.time_to_agreement()
            for t in (1, 4, 8)
        ]
        assert len(set(rounds)) == 1
        assert rounds[0] <= 6


class TestFaultySender:
    def test_silenced_sender_delivers_bottom(self):
        result = execute(
            "trb", n=24, sender=0, value=5, t=4,
            adversary=SilenceAdversary([0]), seed=3,
        ).result
        assert set(result.non_faulty_decisions().values()) == {BOTTOM}

    def test_sender_crashing_later_still_agrees(self):
        """A sender crashed after its first broadcast: everyone already has
        the value and must agree on it."""
        result = execute(
            "trb", n=24, sender=0, value=5, t=4,
            adversary=StaticCrashAdversary({1: [0]}), seed=4,
        ).result
        assert set(result.non_faulty_decisions().values()) == {5}

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_under_noisy_omissions(self, seed):
        result = execute(
            "trb", n=20, sender=0, value=3, t=3,
            adversary=RandomOmissionAdversary(0.7, seed=seed), seed=seed,
        ).result
        values = set(result.non_faulty_decisions().values())
        assert len(values) == 1
        assert values <= {3, BOTTOM}

    def test_partial_first_round_converges(self):
        """The adversary delivers the faulty sender's broadcast to nobody:
        without relays the value never enters the system."""
        result = execute(
            "trb", n=16, sender=0, value=1, t=2,
            adversary=SilenceAdversary([0]), seed=5,
        ).result
        values = set(result.non_faulty_decisions().values())
        assert values == {BOTTOM}


class TestEarlyStoppingShape:
    def test_rounds_grow_with_actual_faults_not_budget(self):
        """min(f + O(1), t + 1): crashing relays delays termination, but
        only the *actual* crash count matters."""
        t = 5
        fault_free = execute("trb", n=24, sender=0, value=1, t=t, seed=6).result
        sender_dead = execute(
            "trb", n=24, sender=0, value=1, t=t,
            adversary=SilenceAdversary([0]), seed=6,
        ).result
        assert fault_free.time_to_agreement() < sender_dead.time_to_agreement()
        # Even the worst case is bounded by the t+2 horizon (+ wind-down).
        assert sender_dead.time_to_agreement() <= t + 4
