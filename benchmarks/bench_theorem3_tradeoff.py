"""E-TH3 — Theorem 3/8: the time-for-randomness interpolation.

Sweeps Algorithm 4's super-process count x at fixed n and regenerates the
trade-off curve: random bits fall from ~n^{3/2} scale (x=1) to 0 (x=n)
while rounds grow ~sqrt(nx), communication stays ~n^2-scale, and the
Theorem-8 invariant ROUNDS x RANDOMNESS stays within polylog of flat.
"""

from conftest import print_series

from repro.analysis import loglog_slope, measure

N = 64
XS = [1, 2, 4, 8, 16, 32, 64]


def sweep(xs, seed):
    """One Algorithm-4 point per super-process count x at n = N."""
    return [
        measure("tradeoff", [N], seed=seed, options={"x": x})[0] for x in xs
    ]


def test_tradeoff_curve(benchmark):
    points = benchmark.pedantic(
        lambda: sweep(XS, 21), rounds=1, iterations=1
    )
    rows = [
        [x, p.rounds, p.random_bits, p.random_calls, p.bits_sent, p.decision]
        for x, p in zip(XS, points)
    ]
    print_series(
        f"Theorem 3 trade-off at n={N}",
        ["x", "rounds T", "rand bits R", "calls", "comm bits", "decision"],
        rows,
    )

    rounds = [p.rounds for p in points]
    randomness = [p.random_bits for p in points]
    # The dial: T lowest at x=1 and rising through the sweep (the very tail
    # may dip because 2-member sub-runs cost more rounds per phase than
    # singleton phases — a granularity effect, not a trend reversal);
    # R peaks at x=1 and hits exactly zero at x=n.
    assert rounds[0] == min(rounds)
    assert all(a <= b for a, b in zip(rounds[:4], rounds[1:5]))
    assert max(rounds) > 4 * rounds[0]
    assert randomness[0] == max(randomness)
    assert randomness[-1] == 0
    assert all(r <= randomness[0] // 2 for r in randomness[3:])

    # Rounds ~ sqrt(nx): slope of T against x near 0.5 in the log-log plot.
    slope = loglog_slope(XS, rounds)
    print(f"\nrounds ~ x^{slope:.2f} (Theorem 8 predicts ~0.5)")
    assert 0.3 < slope < 0.8

    # Communication never blows past ~n^2 polylog scale: compare extremes.
    bits = [p.bits_sent for p in points]
    print(f"comm bits spread max/min = {max(bits) / min(bits):.1f} "
          "(stays within polylog factors)")
    assert max(bits) / min(bits) < 32


def test_invariant_T_times_R(benchmark):
    """Theorem 8: ROUNDS x RANDOMNESS ~ n^2 polylog, flat across x (for the
    randomized regime; the deterministic endpoint leaves the curve)."""
    xs = [1, 2, 4, 8, 16]
    points = benchmark.pedantic(
        lambda: sweep(xs, 22), rounds=1, iterations=1
    )
    rows = []
    products = []
    for x, p in zip(xs, points):
        product = p.rounds * max(1, p.random_bits)
        products.append(product)
        rows.append([x, p.rounds, p.random_bits, product])
    print_series(
        "Theorem 8 invariant T x R",
        ["x", "T", "R", "T*R"],
        rows,
    )
    spread = max(products) / min(products)
    print(f"\ninvariant spread max/min = {spread:.1f} (flat within polylog)")
    assert spread < 16


def test_endpoints_match_regimes(benchmark):
    """x=1 reproduces Algorithm 1's randomized regime; x=n is deterministic
    round-robin — the two extremes of the paper's interpolation."""
    points = benchmark.pedantic(
        lambda: sweep([1, N], 23), rounds=1, iterations=1
    )
    randomized, deterministic = points
    print(
        f"\nx=1: T={randomized.rounds}, R={randomized.random_bits}; "
        f"x={N}: T={deterministic.rounds}, R={deterministic.random_bits}"
    )
    assert randomized.random_bits > 0
    assert deterministic.random_bits == 0
    assert deterministic.rounds > 4 * randomized.rounds
