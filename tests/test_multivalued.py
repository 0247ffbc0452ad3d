"""Tests for multi-valued consensus (bit-prefix agreement)."""

import random

import pytest

from repro.adversary import SilenceAdversary, VoteBalancingAdversary
from repro.core import MultiValuedConsensus
from repro.core.multivalued import _bit_of, _matches_prefix
from repro.harness import execute


class TestBitHelpers:
    def test_bit_of_msb_first(self):
        # 0b1010 with width 4: bits are 1,0,1,0.
        assert [_bit_of(0b1010, index, 4) for index in range(4)] == [1, 0, 1, 0]

    def test_matches_prefix(self):
        assert _matches_prefix(0b1010, [1, 0], 4)
        assert not _matches_prefix(0b1010, [1, 1], 4)
        assert _matches_prefix(0b1010, [], 4)


class TestConstruction:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            MultiValuedConsensus(0, 8, 256, value_bits=8)
        with pytest.raises(ValueError):
            MultiValuedConsensus(0, 8, -1, value_bits=8)
        with pytest.raises(ValueError):
            MultiValuedConsensus(0, 8, 0, value_bits=0)


class TestCorrectness:
    def test_unanimous_value_decided(self):
        result = execute("multivalued", [42] * 33, value_bits=6, seed=1).result
        assert result.agreement_value() == 42

    def test_decision_is_some_input(self):
        """Strong validity: the decided value is an actual input even when
        inputs avoid 'easy' values like 0."""
        rng = random.Random(7)
        inputs = [rng.randrange(128, 256) for _ in range(36)]
        result = execute("multivalued", inputs, value_bits=8, seed=2).result
        assert result.agreement_value() in inputs

    def test_two_distinct_values(self):
        inputs = [13 if pid % 2 else 29 for pid in range(36)]
        result = execute("multivalued", inputs, value_bits=5, seed=3).result
        assert result.agreement_value() in (13, 29)

    def test_agreement_under_silence(self):
        rng = random.Random(11)
        n = 36
        inputs = [rng.randrange(16) for _ in range(n)]
        result = execute(
            "multivalued", inputs, value_bits=4, adversary=SilenceAdversary([0]), t=1, seed=4
        ).result
        decision = result.agreement_value()
        assert decision in inputs

    def test_agreement_under_balancer(self):
        rng = random.Random(13)
        n = 36
        inputs = [rng.randrange(8) for _ in range(n)]
        result = execute(
            "multivalued", inputs,
            value_bits=3,
            adversary=VoteBalancingAdversary(seed=5),
            t=1,
            seed=5,
        ).result
        assert result.agreement_value() in inputs

    def test_single_bit_width(self):
        result = execute(
            "multivalued", [pid % 2 for pid in range(33)], value_bits=1, seed=6
        ).result
        assert result.agreement_value() in (0, 1)

    def test_deterministic_given_seed(self):
        inputs = [3, 5, 7] * 11
        a = execute("multivalued", inputs, value_bits=3, seed=7).result
        b = execute("multivalued", inputs, value_bits=3, seed=7).result
        assert a.agreement_value() == b.agreement_value()
        assert a.metrics.bits_sent == b.metrics.bits_sent


class TestProcessState:
    def test_prefix_and_candidate_exposed(self):
        run = execute("multivalued", [9] * 33, value_bits=4, seed=8)
        processes = run.processes
        for process in processes:
            assert process.prefix == [1, 0, 0, 1]
            assert process.candidate == 9
            assert 9 in process.seen
