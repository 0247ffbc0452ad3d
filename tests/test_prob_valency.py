"""Tests for the probabilistic valency machinery (Pr(H, A) bands)."""

import itertools
import math

import pytest

from repro.lowerbound import (
    BIVALENT,
    ONE_VALENT,
    ZERO_VALENT,
    CoinVotingProtocol,
    FloodMinProtocol,
    classify_all_inputs,
    classify_state,
    probability_band,
    reachable_outcomes,
)


class TestProbabilityBand:
    def test_unanimous_states_are_certain(self):
        protocol = CoinVotingProtocol(n=3, max_rounds=3)
        assert probability_band(protocol, (1, 1, 1), t=1) == (1.0, 1.0)
        assert probability_band(protocol, (0, 0, 0), t=1) == (0.0, 0.0)

    def test_band_is_ordered(self):
        protocol = CoinVotingProtocol(n=3, max_rounds=3)
        for inputs in ((0, 1, 1), (0, 0, 1), (1, 0, 1)):
            inf_p, sup_p = probability_band(protocol, inputs, t=1)
            assert 0.0 <= inf_p <= sup_p <= 1.0

    def test_no_adversary_collapses_band(self):
        """With t = 0 the adversary has exactly one (empty) strategy, so
        inf == sup: the band is a single probability."""
        protocol = CoinVotingProtocol(n=3, max_rounds=3)
        inf_p, sup_p = probability_band(protocol, (0, 1, 1), t=0)
        assert math.isclose(inf_p, sup_p)

    def test_adversary_widens_band(self):
        protocol = CoinVotingProtocol(n=3, max_rounds=3)
        inf0, sup0 = probability_band(protocol, (0, 1, 1), t=0)
        inf1, sup1 = probability_band(protocol, (0, 1, 1), t=1)
        assert inf1 <= inf0 and sup1 >= sup0
        assert sup1 - inf1 > sup0 - inf0

    def test_adversary_can_force_one_from_mixed_majority_one(self):
        """Crashing the lone 0-holder before it speaks forces unanimity 1."""
        protocol = CoinVotingProtocol(n=3, max_rounds=3)
        _, sup_p = probability_band(protocol, (0, 1, 1), t=1)
        assert sup_p == 1.0

    def test_longer_horizon_extremizes_no_adversary_probability(self):
        """Without an adversary, each extra round gives the mixed system
        another unification attempt, so Pr(consensus on 1) converges; it
        must stay a valid probability and be non-decreasing in rounds for
        this monotone protocol's 1-side."""
        bands = [
            probability_band(CoinVotingProtocol(3, rounds), (0, 1, 1), 0)[1]
            for rounds in (1, 2, 3, 4)
        ]
        assert all(0.0 <= value <= 1.0 for value in bands)

    def test_input_validation(self):
        protocol = CoinVotingProtocol(n=3, max_rounds=2)
        with pytest.raises(ValueError):
            probability_band(protocol, (0, 1), t=1)
        with pytest.raises(ValueError):
            CoinVotingProtocol(n=0, max_rounds=2)


class TestClassification:
    def test_unanimous_states_univalent(self):
        protocol = CoinVotingProtocol(n=3, max_rounds=3)
        assert classify_state(protocol, (1, 1, 1), 1).classification == ONE_VALENT
        assert classify_state(protocol, (0, 0, 0), 1).classification == ZERO_VALENT

    def test_epsilon_validation(self):
        protocol = CoinVotingProtocol(n=2, max_rounds=2)
        with pytest.raises(ValueError):
            classify_state(protocol, (0, 1), 1, epsilon=0.6)

    def test_lemma13_witness_at_generous_epsilon(self):
        """With the toy-scale slack, a mixed input is bivalent: the
        adversary can push the outcome probability both above 1-eps and
        below eps (Lemma 13's content)."""
        protocol = CoinVotingProtocol(n=3, max_rounds=3)
        witness = classify_state(protocol, (0, 1, 1), t=1, epsilon=0.2)
        assert witness.classification == BIVALENT
        assert witness.sup_probability > 0.8
        assert witness.inf_probability < 0.2

    def test_no_witness_without_adversary(self):
        """With t = 0 every band is a point, so nothing is bivalent at a
        small epsilon — the witness needs adversarial power, exactly as in
        the lemma's statement ('if the adversary can control one
        process')."""
        protocol = CoinVotingProtocol(n=2, max_rounds=2)
        for inputs in itertools.product((0, 1), repeat=2):
            result = classify_state(protocol, inputs, t=0, epsilon=0.05)
            assert result.inf_probability == result.sup_probability
            assert result.classification != BIVALENT


class TestOneSearchTwoClassifiers:
    """Both classifiers fold the same crash game, so each takes the other's
    protocols: deterministic valency is the coin-free case of ``Pr(H, A)``."""

    def test_band_of_a_deterministic_protocol_is_its_valency(self):
        protocol = FloodMinProtocol(n=3, max_rounds=2)
        for inputs, outcomes in classify_all_inputs(protocol, t=1).outcomes.items():
            band = probability_band(protocol, inputs, t=1)
            assert band == (float(outcomes == {1}), float(1 in outcomes))

    def test_reachable_outcomes_of_a_coin_protocol(self):
        protocol = CoinVotingProtocol(n=3, max_rounds=3)
        assert reachable_outcomes(protocol, (1, 1, 1), t=1) == {1}
        inf, sup = probability_band(protocol, (0, 1, 1), t=0)
        assert 0.0 < inf == sup < 1.0
        assert {0, 1} <= reachable_outcomes(protocol, (0, 1, 1), t=0)
