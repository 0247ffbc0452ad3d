"""Trading time for randomness: the Theorem-3 interpolation in action.

Scenario from the paper's Question 2: your replicas draw randomness from a
slow hardware entropy source (or a pseudo-random generator you do not trust
against a full-information adversary), so random bits are a budgeted
resource.  ``ParamOmissions`` (Algorithm 4) with ``x`` super-processes lets
you dial consumption down from ``~ n^{3/2}`` bits (x = 1, fastest) to zero
(x = n, fully deterministic round-robin) while communication stays ~n^2 and
the product ROUNDS x RANDOMNESS stays on the ~n^2 invariant curve.

Run:  python examples/randomness_budget.py
"""

from __future__ import annotations

from repro.analysis import CampaignSpec, run_campaign
from repro.analysis.theory import theorem3_invariant

N = 64


def main() -> None:
    xs = [1, 2, 4, 8, 16, 32, 64]
    # One campaign cell per x: Algorithm 4 on balanced inputs at seed 11.
    points = [
        (x, run_campaign(CampaignSpec(
            "randomness-budget", "tradeoff", ns=(N,), seeds=(11,),
            options={"x": x},
        ))[0])
        for x in xs
    ]

    print(f"Algorithm 4 on n = {N} processes: the time<->randomness dial\n")
    print(f"{'x':>4} {'rounds T':>9} {'rand bits R':>12} {'comm bits':>12} "
          f"{'T*max(R,1)':>12} {'decision':>9}")
    for x, point in points:
        invariant = theorem3_invariant(
            point["rounds"], max(point["random_bits"], 1)
        )
        print(
            f"{x:>4} {point['rounds']:>9} {point['random_bits']:>12} "
            f"{point['bits']:>12} {invariant:>12.0f} {point['decision']:>9}"
        )

    frugal_x, frugal = min(points, key=lambda xp: xp[1]["random_bits"])
    fastest_x, fastest = min(points, key=lambda xp: xp[1]["rounds"])
    print(
        f"\nfastest: x={fastest_x} ({fastest['rounds']} rounds, "
        f"{fastest['random_bits']} random bits)"
    )
    print(
        f"most randomness-frugal: x={frugal_x} "
        f"({frugal['rounds']} rounds, {frugal['random_bits']} random bits)"
    )
    print("\nShape check (Theorem 3): random bits fall monotonically in x "
          "while rounds rise — you pay for determinism with time, never "
          "with communication blow-up.")


if __name__ == "__main__":
    main()
