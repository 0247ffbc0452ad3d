"""Unit tests for ProtocolParams: presets, derived quantities, thresholds."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.params import ProtocolParams, default_fault_bound, log2ceil


class TestLog2Ceil:
    def test_small_values(self):
        assert log2ceil(1) == 0
        assert log2ceil(2) == 1
        assert log2ceil(3) == 2
        assert log2ceil(4) == 2
        assert log2ceil(5) == 3
        assert log2ceil(1024) == 10

    def test_fractional(self):
        assert log2ceil(0.5) == 0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            log2ceil(0)
        with pytest.raises(ValueError):
            log2ceil(-3)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_matches_bit_length(self, n):
        # ceil(log2 n) == (n-1).bit_length() for n >= 1.
        assert log2ceil(n) == (n - 1).bit_length()


class TestDefaultFaultBound:
    def test_paper_fraction(self):
        assert default_fault_bound(31) == 0
        assert default_fault_bound(32) == 1
        assert default_fault_bound(310) == 9

    def test_strictly_below_fraction(self):
        for n in range(1, 500):
            t = default_fault_bound(n)
            if t > 0:
                assert t * 31 < n + 31  # t <= (n-1)/31

    def test_rejects_non_positive_n(self):
        with pytest.raises(ValueError):
            default_fault_bound(0)


class TestPresets:
    def test_paper_constants(self):
        params = ProtocolParams.paper()
        assert params.delta_factor == 832
        assert params.spread_rounds_factor == 8
        assert params.threshold_den == 30

    def test_practical_keeps_functional_forms(self):
        params = ProtocolParams.practical()
        # Delta = Theta(log n): doubling n in the exponent adds a constant.
        assert params.delta(1 << 10) - params.delta(1 << 8) == 2 * params.delta_factor

    def test_with_overrides(self):
        params = ProtocolParams.practical().with_overrides(epoch_min=7)
        assert params.epoch_min == 7
        assert params.delta_factor == ProtocolParams.practical().delta_factor

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ProtocolParams(one_threshold_num=10, zero_threshold_num=20)

    def test_invalid_scalars_rejected(self):
        with pytest.raises(ValueError):
            ProtocolParams(delta_factor=0)
        with pytest.raises(ValueError):
            ProtocolParams(spread_rounds_min=0)
        with pytest.raises(ValueError, match="group_relay_quorum_divisor"):
            ProtocolParams(group_relay_quorum_divisor=0)


class TestDerivedQuantities:
    def test_delta_capped_at_complete_graph(self):
        params = ProtocolParams.paper()
        assert params.delta(100) == 99

    def test_delta_zero_for_singleton(self):
        assert ProtocolParams.practical().delta(1) == 0

    def test_operative_threshold_positive(self):
        params = ProtocolParams.practical()
        for n in (2, 16, 256, 4096):
            assert params.operative_degree_threshold(n) >= 1

    def test_spread_rounds_floor(self):
        params = ProtocolParams.practical()
        assert params.spread_rounds(2) >= params.spread_rounds_min

    def test_num_epochs_scales_with_t(self):
        params = ProtocolParams.practical()
        n = 1024
        assert params.num_epochs(n, 33) > params.num_epochs(n, 1)

    def test_num_epochs_floor(self):
        params = ProtocolParams.practical()
        assert params.num_epochs(64, 0) == params.epoch_min

    def test_max_faults_respects_fraction(self):
        params = ProtocolParams.practical()
        for n in (31, 32, 64, 256, 1000):
            t = params.max_faults(n)
            params.validate_fault_budget(n, t)  # must not raise

    def test_validate_rejects_excess(self):
        params = ProtocolParams.practical()
        with pytest.raises(ValueError):
            params.validate_fault_budget(60, 2)
        with pytest.raises(ValueError):
            params.validate_fault_budget(100, -1)


class TestVotingThresholds:
    def test_adopt_one_at_18_30(self):
        params = ProtocolParams.practical()
        assert params.adopt_one(19, 30)
        assert not params.adopt_one(18, 30)  # strict inequality

    def test_adopt_zero_at_15_30(self):
        params = ProtocolParams.practical()
        assert params.adopt_zero(14, 30)
        assert not params.adopt_zero(15, 30)

    def test_decide_band(self):
        params = ProtocolParams.practical()
        assert params.ready_to_decide(28, 30)
        assert params.ready_to_decide(2, 30)
        assert not params.ready_to_decide(27, 30)
        assert not params.ready_to_decide(3, 30)
        assert not params.ready_to_decide(15, 30)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_adopt_rules_exclusive(self, ones):
        """No count can trigger both the adopt-1 and adopt-0 rules."""
        params = ProtocolParams.practical()
        total = 10_000
        assert not (
            params.adopt_one(ones, total) and params.adopt_zero(ones, total)
        )

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=300),
    )
    def test_decide_implies_adopt(self, ones, extra):
        """The safety rule only fires inside a deterministic-adopt region
        (line 12 can only accompany line 9 or line 10, never the coin)."""
        params = ProtocolParams.practical()
        total = ones + extra
        if params.ready_to_decide(ones, total):
            assert params.adopt_one(ones, total) or params.adopt_zero(
                ones, total
            )

    def test_gap_covers_inoperative_fraction(self):
        """18/30 - 15/30 = 3/30 = the maximal inoperative fraction (3t/n
        with t < n/30) — the property Figure 3 illustrates."""
        params = ProtocolParams.paper()
        gap = (params.one_threshold_num - params.zero_threshold_num)
        assert gap * params.fault_fraction_denominator >= 3 * params.threshold_den / 10
        assert math.isclose(gap / params.threshold_den, 0.1)
