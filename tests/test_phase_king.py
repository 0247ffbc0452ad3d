"""Tests for the phase-king deterministic baseline."""

import pytest

from repro.adversary import (
    RandomOmissionAdversary,
    SilenceAdversary,
    StaticCrashAdversary,
)
from repro.baselines import PhaseKingProcess
from repro.harness import execute


class TestConstruction:
    def test_rejects_insufficient_redundancy(self):
        with pytest.raises(ValueError):
            PhaseKingProcess(0, 8, 1, t=2)  # needs n > 4t

    def test_rejects_bad_bit(self):
        with pytest.raises(ValueError):
            PhaseKingProcess(0, 8, 2, t=1)


class TestCorrectness:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity(self, bit):
        result = execute("phase-king", [bit] * 9, t=2).result
        assert result.agreement_value() == bit

    def test_rounds_are_three_per_phase(self):
        result = execute("phase-king", [1] * 9, t=2).result
        assert result.time_to_agreement() == 3 * 3 + 1

    def test_agreement_mixed_inputs(self):
        result = execute("phase-king", [pid % 2 for pid in range(9)], t=2).result
        assert result.agreement_value() in (0, 1)

    def test_agreement_with_silenced_kings(self):
        """Silencing the first kings forces reliance on later phases."""
        result = execute(
            "phase-king", [pid % 2 for pid in range(13)],
            t=3,
            adversary=SilenceAdversary([0, 1, 2]),
        ).result
        assert result.agreement_value() in (0, 1)

    def test_agreement_under_random_omissions(self):
        for seed in range(3):
            result = execute(
                "phase-king", [pid % 2 for pid in range(13)],
                t=3,
                adversary=RandomOmissionAdversary(0.5, seed=seed),
                seed=seed,
            ).result
            assert result.agreement_value() in (0, 1)

    def test_agreement_under_crashes(self):
        result = execute(
            "phase-king", [pid % 2 for pid in range(17)],
            t=4,
            adversary=StaticCrashAdversary({2: [0], 5: [5], 8: [9]}),
        ).result
        assert result.agreement_value() in (0, 1)

    def test_validity_beats_faulty_minority(self):
        inputs = [0] * 2 + [1] * 11
        result = execute(
            "phase-king", inputs, t=2, adversary=SilenceAdversary([0, 1])
        ).result
        assert result.agreement_value() == 1
