"""Tests for the Monte-Carlo analysis helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    estimate_rate,
    fallback_rate_vs_epochs,
    wilson_interval,
)


class TestWilson:
    def test_extremes(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0 and high < 0.35
        low, high = wilson_interval(10, 10)
        assert high > 0.999999 and low > 0.65

    def test_half(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        assert math.isclose(high - 0.5, 0.5 - low, abs_tol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=0, max_value=500),
    )
    def test_interval_brackets_point_estimate(self, trials, successes):
        if successes > trials:
            successes = trials
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0

    @given(st.integers(min_value=1, max_value=60))
    def test_interval_narrows_with_trials(self, successes):
        narrow = wilson_interval(successes, 60)
        wide = wilson_interval(successes * 10, 600)
        assert (wide[1] - wide[0]) < (narrow[1] - narrow[0])


class TestEstimateRate:
    def test_deterministic_trial(self):
        estimate = estimate_rate(lambda seed: seed % 2 == 0, trials=10)
        assert estimate.successes == 5
        assert estimate.rate == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_rate(lambda seed: True, trials=0)

    def test_str_format(self):
        estimate = estimate_rate(lambda seed: True, trials=4)
        assert "(4/4)" in str(estimate)


class TestPaperExperiments:
    def test_fallback_rate_decays_with_epochs(self):
        """Lemma-10 ablation: more epochs, fewer fallbacks (on small
        samples we assert weak monotonicity between the extremes)."""
        rates = fallback_rate_vs_epochs(
            36, epoch_counts=[1, 8], trials=8, seed=1
        )
        assert rates[0][0] == 1 and rates[1][0] == 8
        assert rates[1][1].rate <= rates[0][1].rate
