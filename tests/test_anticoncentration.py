"""Tests for the Lemma-9 anti-concentration verification."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.lowerbound import (
    deviation_probability,
    lemma9_lower_bound,
    verify_lemma9,
)


class TestBound:
    def test_at_zero(self):
        assert math.isclose(
            lemma9_lower_bound(0.0),
            math.exp(-4.0) / math.sqrt(2 * math.pi),
        )

    def test_decreasing_in_t(self):
        values = [lemma9_lower_bound(t) for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lemma9_lower_bound(-0.1)


class TestExactProbability:
    def test_symmetric_point(self):
        # Pr[X >= n/2] > 0.5 for even n (includes the mean).
        assert deviation_probability(64, 0.0) > 0.5

    def test_decreasing_in_t(self):
        probs = [deviation_probability(256, t) for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            deviation_probability(0, 1.0)

    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(min_value=8, max_value=2000),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_is_a_probability(self, n, t):
        value = deviation_probability(n, t)
        assert 0.0 <= value <= 1.0


class TestLemma9:
    def test_grid_holds(self):
        checks = verify_lemma9([16, 64, 256, 1024, 4096])
        assert checks
        assert all(check.holds for check in checks)

    def test_respects_validity_range(self):
        # The grid spans t in [0, sqrt(n)/8], the lemma's valid range.
        checks = verify_lemma9([16])
        assert [check.t for check in checks] == [0.0, 0.125, 0.25, 0.5]

    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(min_value=64, max_value=2048),
        st.floats(min_value=0.0, max_value=0.9),
    )
    def test_property_within_range(self, n, fraction):
        t = fraction * math.sqrt(n) / 8.0
        exact = deviation_probability(n, t)
        assert exact >= lemma9_lower_bound(t)
