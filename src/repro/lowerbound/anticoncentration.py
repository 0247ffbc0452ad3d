"""Numeric verification of Lemma 9 (anti-concentration of the coin sum).

Lemma 9 (quoted from [10], Lemma 4.3): if n processes flip fair coins and X
counts the 1s, then for any ``t <= sqrt(n)/8``

    Pr[X - E[X] >= t * sqrt(n)]  >=  exp(-4 (t+1)^2) / sqrt(2 pi).

This is the engine of the upper bound's progress argument (Lemma 10): with
constant probability the coin flips *deviate* enough that the adversary
must spend ~sqrt(n) corruptions to cancel them.  Binomial tails are exactly
computable, so the lemma is verifiable point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from .epoch_chain import binomial_tail_geq


def lemma9_lower_bound(t: float) -> float:
    """The Lemma-9 guaranteed probability ``exp(-4(t+1)^2)/sqrt(2 pi)``."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return math.exp(-4.0 * (t + 1.0) ** 2) / math.sqrt(2.0 * math.pi)


def deviation_probability(n: int, t: float) -> float:
    """Exact ``Pr[X - n/2 >= t sqrt(n)]`` for ``X ~ Bin(n, 1/2)``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    threshold = math.ceil(n / 2.0 + t * math.sqrt(n))
    return binomial_tail_geq(n, threshold)


@dataclass(frozen=True)
class Lemma9Check:
    """One grid point of the Lemma-9 verification."""

    n: int
    t: float
    exact: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.exact >= self.bound - 1e-15


def verify_lemma9(ns: Sequence[int]) -> list[Lemma9Check]:
    """Evaluate Lemma 9 on a grid; each point's ``holds`` should be True.

    For each n, ``t`` spreads over the lemma's valid range
    ``t <= sqrt(n)/8``.
    """
    checks = []
    for n in ns:
        limit = math.sqrt(n) / 8.0
        for t in (0.0, limit / 4, limit / 2, limit):
            checks.append(
                Lemma9Check(
                    n=n,
                    t=t,
                    exact=deviation_probability(n, t),
                    bound=lemma9_lower_bound(t),
                )
            )
    return checks
