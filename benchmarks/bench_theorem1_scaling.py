"""E-TH1 — Theorem 1/5 scaling: rounds, bits, random bits vs n.

The paper claims O(sqrt(n) log^2 n) rounds, O(n^2 log^3 n) bits and
O(n^{3/2} log^2 n) random bits at t = Theta(n).  This bench sweeps n under
the adaptive vote-balancing adversary and reports log-log slopes: the
measured exponents must sit below quadratic-in-rounds (the Dolev-Strong
regime the paper displaces) and near the predicted powers.
"""

from conftest import print_series

from repro.adversary import VoteBalancingAdversary
from repro.analysis import loglog_slope, measure
from repro.analysis.theory import theorem1_rounds

NS = [64, 100, 144, 196, 256, 400]


def scaling(seed, **kwargs):
    """Algorithm 1 over NS on its whp fast path (fallback runs retried)."""
    return measure(
        "algorithm1", NS, seed=lambda n: seed + n, whp_retries=3, **kwargs
    )


def test_theorem1_scaling_shapes(benchmark):
    points = benchmark.pedantic(
        lambda: scaling(
            1, adversary=lambda n, t, seed: VoteBalancingAdversary(seed=n)
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for point in points:
        rows.append(
            [
                point.n,
                point.t,
                point.rounds,
                point.bits_sent,
                point.random_bits,
                f"{theorem1_rounds(point.n, point.t):.1f}",
                point.used_fallback,
            ]
        )
    print_series(
        "Theorem 1 scaling under the vote-balancing adversary",
        ["n", "t", "rounds", "bits", "rbits", "thy-rounds", "fallback"],
        rows,
    )

    ns = [point.n for point in points]
    round_slope = loglog_slope(ns, [point.rounds for point in points])
    bits_slope = loglog_slope(ns, [point.bits_sent for point in points])
    rbits_slope = loglog_slope(
        ns, [max(1, point.random_bits) for point in points]
    )
    print(
        f"\nlog-log slopes: rounds={round_slope:.2f} (theory ~0.5+polylog), "
        f"bits={bits_slope:.2f} (theory ~2+polylog), "
        f"random={rbits_slope:.2f} (theory ~1.5+polylog)"
    )

    # Shape assertions (generous polylog slack):
    assert round_slope < 1.3, "rounds must scale sublinearly (vs O(t) baseline)"
    assert 1.4 < bits_slope < 2.8, "bits must scale ~quadratically"
    assert 0.5 < rbits_slope < 2.3, "randomness must scale ~n^1.5"


def test_theorem1_rounds_beat_linear_baseline(benchmark):
    """Who wins: Algorithm 1's measured rounds grow far slower than the
    t-linear deterministic baseline at the same fault density."""
    points = benchmark.pedantic(
        lambda: scaling(2), rounds=1, iterations=1
    )
    small, large = points[0], points[-1]
    growth = large.rounds / small.rounds
    linear_growth = large.n / small.n
    print(
        f"\nrounds growth x{growth:.2f} over n x{linear_growth:.1f} "
        f"(a t-linear protocol would grow x{linear_growth:.1f})"
    )
    assert growth < linear_growth


def test_theorem1_validity_costs_no_randomness(benchmark):
    """Unanimous inputs must terminate with zero random bits at every n."""
    def workload():
        from repro.core import run_consensus

        results = []
        for n in (64, 144):
            run = run_consensus([1] * n, seed=3)
            results.append((n, run.decision, run.metrics.random_bits))
        return results

    results = benchmark.pedantic(workload, rounds=1, iterations=1)
    print_series(
        "validity fast-path", ["n", "decision", "random bits"], results
    )
    for _n, decision, random_bits in results:
        assert decision == 1
        assert random_bits == 0
