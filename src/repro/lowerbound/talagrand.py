"""Numerical verification of Talagrand's inequality (Theorem 6 / [35]).

The lower-bound proof rests on Talagrand's concentration inequality for
product spaces: for any ``U ⊆ Ω^k`` and ``t ≥ 0``,

    Pr[U] * Pr[ρ(U, x) > t] <= exp(-t^2 / 4),

where ``ρ`` is the convex distance.  For *monotone threshold* sets on the
Boolean cube — ``U_s = {x ∈ {0,1}^k : Σx_i >= s}``, exactly the sets the
coin-flipping game uses — the uniform-weight witness gives
``ρ(U_s, x) >= (s - Σx_i)^+ / sqrt(k)``, so verifying

    Pr[Bin(k,1/2) >= s] * Pr[Bin(k,1/2) < s - t*sqrt(k)] <= exp(-t^2/4)

is a sound (slightly stronger-than-needed) numeric check, computable exactly
with binomial tails.  :func:`verify_threshold_inequality` evaluates it on a
grid; the benchmark asserts no violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Sequence


@lru_cache(maxsize=4096)
def binomial_tail_geq(k: int, s: int) -> float:
    """Exact ``Pr[Bin(k, 1/2) >= s]``."""
    if s <= 0:
        return 1.0
    if s > k:
        return 0.0
    total = sum(math.comb(k, i) for i in range(s, k + 1))
    # Integer/integer division: exact big-int arithmetic until the final
    # float conversion (2.0**k would overflow beyond k ~ 1023).
    return total / (1 << k)


def binomial_tail_lt(k: int, s: float) -> float:
    """Exact ``Pr[Bin(k, 1/2) < s]``."""
    ceiling = math.ceil(s)
    if ceiling <= 0:
        return 0.0
    return 1.0 - binomial_tail_geq(k, ceiling)


@dataclass(frozen=True)
class TalagrandCheck:
    """One grid point of the Theorem-6 verification."""

    k: int
    s: int
    t: float
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-12


def check_threshold_point(k: int, s: int, t: float) -> TalagrandCheck:
    """Evaluate both sides of the inequality for the threshold set U_s."""
    pr_u = binomial_tail_geq(k, s)
    pr_far = binomial_tail_lt(k, s - t * math.sqrt(k))
    return TalagrandCheck(
        k=k, s=s, t=t, lhs=pr_u * pr_far, rhs=math.exp(-t * t / 4.0)
    )


def verify_threshold_inequality(
    ks: Sequence[int],
    t_values: Sequence[float],
) -> list[TalagrandCheck]:
    """Evaluate the inequality on a grid of (k, s, t); returns all points.

    Five thresholds are spread from the mean to the far tail for each k,
    probing both the bulk (large Pr[U]) and the tail (small Pr[U]) regimes.
    """
    checks = []
    for k in ks:
        mean = k // 2
        spread = max(1, int(2 * math.sqrt(k)))
        step = max(1, spread // 2)
        thresholds = range(mean - spread, mean + spread + 1, step)
        for s in thresholds:
            for t in t_values:
                checks.append(check_threshold_point(k, max(0, s), t))
    return checks
