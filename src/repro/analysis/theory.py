"""Theoretical complexity curves from the paper (Table 1).

These are the *shapes* the measurements are compared against — asymptotic
expressions with all constants set to 1, evaluated at concrete (n, t).  The
benchmarks report measured/theory ratios across n; a shape match means the
ratio stays roughly constant (equivalently, matching log-log slopes).
"""

from __future__ import annotations

import math


def log2n(n: int) -> float:
    """``log2 n`` floored at 1, the polylog unit used throughout."""
    return max(1.0, math.log2(n))


# ---------------------------------------------------------------------------
# Theorem 1 / Theorem 5: the main algorithm.
# ---------------------------------------------------------------------------

def theorem1_rounds(n: int, t: int) -> float:
    """``O(t / sqrt(n) * log^2 n)`` rounds (Theorem 5)."""
    return (t / math.sqrt(n)) * log2n(n) ** 2


def theorem1_bits(n: int, t: int) -> float:
    """``O(n (t log^3 n + n))`` communication bits (Theorem 5)."""
    return n * (t * log2n(n) ** 3 + n)


def theorem1_random_bits(n: int, t: int) -> float:
    """``O(t sqrt(n) log^2 n)`` random bits (Theorem 5)."""
    return t * math.sqrt(n) * log2n(n) ** 2


# ---------------------------------------------------------------------------
# Theorem 2 / Theorem 7: the lower bound.
# ---------------------------------------------------------------------------

def theorem2_product(n: int, t: int) -> float:
    """``T x (R + T) = Omega(t^2 / log n)``."""
    return t * t / log2n(n)


def bar_joseph_ben_or_rounds(n: int, t: int) -> float:
    """The [10] lower bound ``Omega(t / sqrt(n log n))``."""
    return t / math.sqrt(n * log2n(n))


def abraham_messages(t: int, epsilon: float = 0.25) -> float:
    """The [1] lower bound ``Omega(epsilon t^2)`` messages."""
    return epsilon * t * t


# ---------------------------------------------------------------------------
# Theorem 3 / Theorem 8: the trade-off algorithm.
# ---------------------------------------------------------------------------

def theorem3_rounds(n: int, x: int) -> float:
    """``~ sqrt(n x)`` rounds for x super-processes (Theorem 8)."""
    return math.sqrt(n * x) * log2n(n) ** 2


def theorem3_random_bits(n: int, x: int) -> float:
    """``~ n sqrt(n/x)`` random bits for x super-processes (Theorem 8)."""
    return n * math.sqrt(n / x)


def theorem3_invariant(rounds: float, random_bits: float) -> float:
    """Theorem 8's invariant: ``ROUNDS x RANDOMNESS ~ n^2`` (polylog-free)."""
    return rounds * random_bits
