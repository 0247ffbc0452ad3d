"""Tests for the Theorem-2 constructive attack experiment."""

from repro.lowerbound import (
    BalancingCrashAdversary,
    measure_tradeoff_product,
)


class TestBalancingAdversary:
    def test_attack_is_legal_and_stalls(self):
        """The adversary obeys the engine's legality rules (the run raising
        no AdversaryProtocolError is the check) and forces more rounds than
        an unattacked run."""
        baseline = measure_tradeoff_product(32, 0, [32], seed=1, max_phases=200)
        attacked = measure_tradeoff_product(32, 8, [32], seed=1, max_phases=200)
        assert attacked[0].rounds >= baseline[0].rounds

    def test_corruptions_bounded_by_budget(self):
        adversary = BalancingCrashAdversary()
        from repro.harness import execute

        result = execute(
            "ben-or", [pid % 2 for pid in range(32)],
            t=6,
            adversary=adversary,
            seed=2,
            max_phases=150,
        ).result
        assert sum(adversary.corruptions_per_round) <= 6
        assert len(result.faulty) <= 6


class TestProductMeasurements:
    def test_product_respects_lower_bound(self):
        """Theorem 2's shape: the measured T x (R + T) never drops below
        t^2 / log2 n for any randomness throttling."""
        points = measure_tradeoff_product(
            48, 12, [0, 8, 48], seed=3, max_phases=250
        )
        for point in points:
            assert point.normalized >= 1.0

    def test_throttled_runs_are_slower(self):
        points = measure_tradeoff_product(
            48, 12, [0, 48], seed=4, max_phases=250
        )
        throttled, full = points
        assert throttled.coin_processes == 0
        assert throttled.rounds > full.rounds

    def test_fields_populated(self):
        points = measure_tradeoff_product(24, 4, [24], seed=5, max_phases=150)
        point = points[0]
        assert point.rounds > 0
        assert point.reference > 0
        assert isinstance(point.agreement_ok, bool)
        assert isinstance(point.decided_all, bool)

    def test_zero_coins_means_zero_calls(self):
        points = measure_tradeoff_product(24, 4, [0], seed=6, max_phases=100)
        assert points[0].random_calls == 0
