"""Tests exercising the verbatim paper constants (ProtocolParams.paper()).

The paper's constants are meant for asymptotic n, but the protocol must
still *run* with them at small n (where Delta caps at the complete graph
and the epoch count is floor-dominated) — the preset exists so property
checks and tiny-system runs can use the untouched numbers.
"""

import pytest

from repro.adversary import SilenceAdversary
from repro.harness import execute
from repro.params import ProtocolParams

PAPER = ProtocolParams.paper()


class TestPaperDerivedQuantities:
    def test_delta_caps_at_complete_graph(self):
        # 832 * log2(64) = 4992 >> 63.
        assert PAPER.delta(64) == 63

    def test_spread_rounds_follow_eight_log_n(self):
        assert PAPER.spread_rounds(256) == 8 * 8

    def test_fault_fraction_is_one_thirtieth(self):
        assert PAPER.fault_fraction_denominator == 30
        assert PAPER.max_faults(64) == 2
        with pytest.raises(ValueError):
            PAPER.validate_fault_budget(64, 3)

    def test_relay_quorum_divisor(self):
        assert PAPER.group_relay_quorum_divisor == 2


class TestPaperModeExecution:
    def test_unanimous_run_with_paper_constants(self):
        """Full Algorithm 1 with untouched constants on a small complete
        overlay: validity and zero randomness must hold exactly."""
        run = execute("algorithm1", [1] * 36, t=1, params=PAPER, seed=1)
        assert run.decision == 1
        assert run.metrics.random_bits == 0

    def test_mixed_run_with_paper_constants(self):
        run = execute(
            "algorithm1", [pid % 2 for pid in range(36)], t=1, params=PAPER, seed=2
        )
        assert run.decision in (0, 1)

    def test_adversarial_run_with_paper_constants(self):
        run = execute(
            "algorithm1", [pid % 2 for pid in range(36)],
            t=1,
            params=PAPER,
            adversary=SilenceAdversary([0]),
            seed=3,
        )
        assert run.decision in (0, 1)

    def test_tradeoff_with_paper_constants(self):
        run = execute(
            "tradeoff", [pid % 2 for pid in range(36)], x=3, params=PAPER, seed=4
        )
        assert run.decision in (0, 1)

    def test_paper_epochs_exceed_practical(self):
        """The paper's 8-log-n spreading budget makes epochs longer than
        the practical preset's — the cost the practical preset trims."""
        practical = ProtocolParams.practical()
        from repro.core import epoch_rounds

        assert epoch_rounds(64, PAPER) > epoch_rounds(64, practical)
