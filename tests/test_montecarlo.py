"""Tests for the Wilson interval and the fallback-rate ablation."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis import wilson_interval
from repro.analysis.report import epoch_budget


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


class TestPaperExperiments:
    def test_fallback_rate_decays_with_epochs(self):
        """Lemma-10 ablation on cells: more epochs, fewer fallbacks (on
        small samples we assert weak monotonicity between the extremes)."""
        values = epoch_budget(36, epochs=[1, 8], trials=8, seed=1)
        assert len(values["fallbacks"]) == 2
        assert values["fallback_rate"][1] <= values["fallback_rate"][0]
        for fallbacks, interval in zip(values["fallbacks"], values["interval"]):
            assert interval == list(wilson_interval(fallbacks, 8))
