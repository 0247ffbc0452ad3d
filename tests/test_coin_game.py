"""Tests for the one-round coin-flipping game (Lemma 12 machinery)."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.lowerbound.epoch_chain import binomial_rows
from repro.lowerbound import (
    ThresholdCoinGame,
    binomial_tail_geq,
    binomial_tail_lt,
    lemma12_budget,
    minimal_budget_for_success,
    sweep_lemma12,
)


class TestGameMechanics:
    def test_outcome_majority(self):
        game = ThresholdCoinGame(k=4, threshold=0)
        assert game.outcome([1, 1, -1, -1], frozenset()) == 1
        assert game.outcome([1, -1, -1, -1], frozenset()) == 0

    def test_hidden_values_count_zero(self):
        game = ThresholdCoinGame(k=3, threshold=1)
        assert game.outcome([1, -1, -1], frozenset({1, 2})) == 1

    def test_bias_toward_zero_exact(self):
        game = ThresholdCoinGame(k=5, threshold=0)
        values = [1, 1, 1, -1, -1]  # sum = 1, need < 0: hide 2 ones
        hidden = game.bias_toward(values, target=0, budget=2)
        assert hidden is not None
        assert len(hidden) == 2
        assert game.outcome(values, hidden) == 0

    def test_bias_toward_one_exact(self):
        game = ThresholdCoinGame(k=5, threshold=0)
        values = [-1, -1, -1, 1, 1]  # sum = -1, need >= 0: hide 1 minus
        hidden = game.bias_toward(values, target=1, budget=1)
        assert hidden is not None
        assert len(hidden) == 1
        assert game.outcome(values, hidden) == 1

    def test_bias_impossible_with_small_budget(self):
        game = ThresholdCoinGame(k=4, threshold=0)
        assert game.bias_toward([1, 1, 1, 1], target=0, budget=2) is None

    def test_already_biased_needs_nothing(self):
        game = ThresholdCoinGame(k=3, threshold=0)
        assert game.bias_toward([-1, -1, -1], target=0, budget=0) == frozenset()

    @settings(max_examples=60)
    @given(
        st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=40),
        st.sampled_from([0, 1]),
    )
    def test_bias_result_always_achieves_target(self, values, budget, target):
        game = ThresholdCoinGame(k=len(values), threshold=0)
        hidden = game.bias_toward(values, target, budget)
        if hidden is not None:
            assert len(hidden) <= budget
            assert game.outcome(values, hidden) == target

    @settings(max_examples=40)
    @given(
        st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=30),
        st.sampled_from([0, 1]),
    )
    def test_greedy_is_minimal(self, values, target):
        """No smaller hidden set forces the target (greedy optimality for
        threshold games)."""
        game = ThresholdCoinGame(k=len(values), threshold=0)
        hidden = game.bias_toward(values, target, budget=len(values))
        if hidden is None or len(hidden) == 0:
            return
        smaller_budget = len(hidden) - 1
        assert game.bias_toward(values, target, smaller_budget) is None


class TestEmpiricalBounds:
    """Lemma 12's shapes on the exact success probability and quantile."""

    def test_success_monotone_in_budget(self):
        game = ThresholdCoinGame(k=64)
        escapes = [game.escape_probability(0, budget) for budget in range(66)]
        assert escapes == sorted(escapes, reverse=True)
        assert escapes[0] == binomial_tail_geq(64, 32)  # nothing hidden: sum >= 0
        assert escapes[-1] == 2.0**-64  # only all +1 escapes

    def test_minimal_budget_within_lemma12(self):
        game = ThresholdCoinGame(k=256)
        budget = minimal_budget_for_success(
            game, target=0, success_probability=0.75
        )
        assert 1 - game.escape_probability(0, budget) >= 0.75
        assert 1 - game.escape_probability(0, budget - 1) < 0.75
        assert budget <= lemma12_budget(256, 0.25)

    def test_budget_scales_like_sqrt_k(self):
        points = sweep_lemma12([64, 1024], [0.25])
        small, large = points[0].measured_budget, points[1].measured_budget
        # sqrt(1024/64) = 4: allow generous slack around the sqrt scaling.
        assert 2 <= large / max(1, small) <= 8

    def test_lemma12_budget_validation(self):
        with pytest.raises(ValueError):
            lemma12_budget(16, 0.9)
        assert lemma12_budget(0, 0.25) == 0.0

    def test_minimal_budget_validation(self):
        game = ThresholdCoinGame(k=8)
        with pytest.raises(ValueError):
            minimal_budget_for_success(game, 0, 0.0)


class TestExactQuantile:
    """The exact layer against the game itself and against big integers."""

    def test_e_th2_budgets_are_pinned(self):
        points = sweep_lemma12([64, 256, 1024, 4096], [0.25, 0.05])
        assert [p.measured_budget for p in points] == [
            7, 15, 11, 27, 23, 53, 45, 107
        ]

    @pytest.mark.parametrize(
        "k,threshold,target,probability",
        [(64, 0, 0, 1.0), (4, 0, 0, 0.95), (4, 1, 1, 0.95), (1, 0, 0, 0.75)],
    )
    def test_unreachable_target_raises(self, k, threshold, target, probability):
        # All k coins on the offending side escape every budget: nothing
        # above 1 - 2^-k is reachable (at threshold 0, target 0 this is
        # all +1).
        game = ThresholdCoinGame(k, threshold)
        with pytest.raises(ValueError, match="no budget reaches"):
            minimal_budget_for_success(game, target, probability)

    def test_highest_reachable_target_is_met(self):
        game = ThresholdCoinGame(4)
        assert minimal_budget_for_success(game, 0, 15 / 16) == 3
        assert 1 - game.escape_probability(0, 3) == 15 / 16

    @pytest.mark.parametrize(
        "k,threshold",
        [(k, 0) for k in range(1, 15)]
        + [(k, threshold) for k in (1, 5, 10) for threshold in (-2, 1, 3)],
    )
    def test_exact_equals_enumerated_game(self, k, threshold):
        game = ThresholdCoinGame(k, threshold)
        vectors = list(itertools.product((-1, 1), repeat=k))
        budgets = range(k + 2)
        for target in (0, 1):
            wins = [0] * len(budgets)
            for values in vectors:
                for budget in budgets:
                    wins[budget] += game.bias_toward(values, target, budget) is not None
            rates = [win / 2**k for win in wins]
            assert [1 - game.escape_probability(target, b) for b in budgets] == rates
            for goal in sorted(set(rates) | {0.25, 0.5, 0.75, 0.95}):
                reachable = [b for b in budgets if rates[b] >= goal]
                if goal == 0.0:
                    continue
                if not reachable:
                    with pytest.raises(ValueError):
                        minimal_budget_for_success(game, target, goal)
                else:
                    assert minimal_budget_for_success(game, target, goal) == reachable[0]

    @pytest.mark.parametrize("m", [1, 2, 57, 1000, 16384])
    def test_tails_match_big_integer_sums(self, m):
        row = [1]
        for i in range(m):
            row.append(row[-1] * (m - i) // (i + 1))
        tail = 0
        for s in range(m, -1, -1):
            tail += row[s]
            exact = tail / (1 << m)
            if exact > 1e-300:
                assert binomial_tail_geq(m, s) == pytest.approx(exact, rel=1e-12)
                assert binomial_tail_lt(m, m + 1 - s) == pytest.approx(exact, rel=1e-12)
        pmf = next(binomial_rows(m, m))
        assert math.fsum(pmf) == pytest.approx(1.0, rel=1e-12)
