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
with the binomial tails of :mod:`~repro.lowerbound.epoch_chain`.
:func:`verify_threshold_inequality` evaluates it on a grid; the benchmark
asserts no violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from .epoch_chain import binomial_tail_geq, binomial_tail_lt


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
