"""Why a lot of randomness is needed: the lower-bound machinery, hands-on.

Three demonstrations from Section 4 / Appendix C:

1. **Lemma 12, the coin-flipping game** — an adversary hiding
   ``O(sqrt(k log 1/alpha))`` of k coin flips biases the game's outcome with
   probability ``1 - alpha``; we compute the exact minimal hide budget.

2. **Lemma 13, valency** — exhaustive search over adaptive crash schedules
   shows the 3-process flooding protocol has bivalent initial states (the
   adversary chooses the outcome), yet never violates agreement with
   ``t + 1`` rounds — and provably does with fewer.

3. **Theorem 2, the T x (R + T) trade-off** — against a balancing adversary,
   a voting protocol throttled to k coin-flipping processes stalls when k is
   small; the measured product never drops below the ``t^2 / log n`` shape.

Run:  python examples/lower_bound_game.py
"""

from __future__ import annotations

from repro.lowerbound import (
    FloodMinProtocol,
    classify_all_inputs,
    lemma12_budget,
    measure_tradeoff_product,
    minimal_budget_for_success,
    sweep_lemma12,
    ThresholdCoinGame,
)


def demo_coin_game() -> None:
    print("=== Lemma 12: the one-round coin-flipping game ===")
    print(f"{'k':>6} {'alpha':>6} {'hides needed':>13} {'8*sqrt(k log 1/a)':>18}")
    for point in sweep_lemma12([16, 64, 256, 1024], [0.25, 0.05]):
        print(
            f"{point.k:>6} {point.alpha:>6} {point.measured_budget:>13} "
            f"{point.lemma12_bound:>18.1f}"
        )
    print("exact budgets grow like sqrt(k), comfortably under the bound\n")


def demo_valency() -> None:
    print("=== Lemma 13: valency of a toy protocol (exhaustive search) ===")
    correct = FloodMinProtocol(n=3, max_rounds=2)
    report = classify_all_inputs(correct, t=1)
    print(f"flood-min, n=3, t=1, rounds=t+1={2}:")
    print(f"  0-valent inputs : {report.univalent(0)}")
    print(f"  1-valent inputs : {report.univalent(1)}")
    print(f"  bivalent inputs : {report.bivalent()}  <- Lemma-13 witnesses")
    print(f"  broken inputs   : {report.broken()}")

    broken = FloodMinProtocol(n=3, max_rounds=1)
    report_broken = classify_all_inputs(broken, t=1)
    print(f"flood-min with only rounds=t={1}:")
    print(f"  broken inputs   : {report_broken.broken()} "
          "(agreement violated — t+1 rounds are necessary)\n")


def demo_product() -> None:
    print("=== Theorem 2: T x (R + T) under the balancing adversary ===")
    n, t = 48, 12
    print(f"voting protocol on n={n}, t={t}, k = processes allowed coins")
    print(f"{'k':>5} {'T':>6} {'R':>7} {'T*(R+T)':>9} {'vs t^2/log n':>13} "
          f"{'agreed':>7}")
    for point in measure_tradeoff_product(n, t, [0, 4, 16, 48], seed=5,
                                          max_phases=250):
        print(
            f"{point.coin_processes:>5} {point.rounds:>6} "
            f"{point.random_calls:>7} {point.product:>9} "
            f"{point.normalized:>13.1f} {str(point.agreement_ok):>7}"
        )
    print("small k -> the adversary pins the vote and the run stalls "
          "(T at the cap);")
    print("full k -> fast termination; the product never beats the bound.\n")


def main() -> None:
    demo_coin_game()
    demo_valency()
    demo_product()

    # Bonus: a single game, end to end.
    game = ThresholdCoinGame(k=100)
    budget = minimal_budget_for_success(game, target=0,
                                        success_probability=0.9)
    print(f"biasing a 100-coin game to 0 with 90% success: "
          f"{budget} hides needed (Lemma 12 allows "
          f"{lemma12_budget(100, 0.1):.0f})")


if __name__ == "__main__":
    main()
