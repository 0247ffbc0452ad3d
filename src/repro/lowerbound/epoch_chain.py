"""One ``Bin(m, 1/2)`` layer, and the exact epoch chain built on it.

Lemma 9's coin-sum odds, Lemma 12's hide budget, Theorem 6's threshold sets
and the chain below are all facts about fair coin sums, so the whole of
:mod:`repro.lowerbound` reads one pmf.  A row comes from Pascal's rule,
halved each step: every entry is a dyadic rational, exact while it fits a
double (m up to about 50) and within 2.4e-15 of the big-int value at
m = 16 384, where an lgamma row is 3.6e-11 off.  Every row up to 16 384
takes ~0.2 s; tails are summed from the far end in.

The chain models Algorithm 1's coin epochs (Lemmas 9 and 10).  Fault-free,
every voter of an epoch reads the same count: ``ones`` of ``total``
(``tests/test_consensus.py::TestVoteRuleBinding``).  Outside the coin band
``15 total <= 30 ones <= 18 total`` lines 9-11 make every voter adopt the
same bit, and the vote has unified; inside it every voter flips a coin, so
the next count is ``K ~ Bin(m, 1/2)`` of the ``m`` voters.  The run falls
back to Dolev-Strong when every coin epoch before the last two lands in the
band again.

An adversary with corruption budget ``B`` left keeps a count ``(K, m)`` in
the band by silencing ``s`` voters for good (aggregation's quorum is
downward monotone): ``m - 2K`` zero-holders below the band,
``ceil((30K - 18m) / 12)`` one-holders above it, none inside.  The chain's
state is (coin epochs left ``c``, budget left ``B``), with
``m = n - (t - B)`` voters::

    V(0, B) = 1
    V(c, B) = sum_K Pr[K] * V(c - 1, B - s(K))   over the K with s(K) <= B

and ``Pr[fallback] = V(E - 2, t)`` for ``E`` epochs.  Paying is never worse
than letting the epoch unify (``V >= 0``), so this recursion is the
adversary's optimum; with no adversary it is the same chain at ``t = 0``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def binomial_rows(first: int, last: int) -> Iterator[np.ndarray]:
    """The pmf rows of ``Bin(m, 1/2)`` for ``m = first .. last``, in order."""
    row = np.ones(1)
    for m in range(last + 1):
        if m >= first:
            yield row
        following = np.zeros(m + 2)
        following[:-1] += row
        following[1:] += row
        row = following * 0.5


@lru_cache(maxsize=64)
def _survival(k: int) -> np.ndarray:
    """``Pr[Bin(k, 1/2) >= s]`` for ``s = 0 .. k``."""
    return next(binomial_rows(k, k))[::-1].cumsum()[::-1]


def binomial_tail_geq(k: int, s: int) -> float:
    """``Pr[Bin(k, 1/2) >= s]``: exact for k up to about 50, within ~1e-15
    relative beyond; a tail below ~1e-300 is not resolved (it may read 0)."""
    if s <= 0:
        return 1.0
    if s > k:
        return 0.0
    return float(_survival(k)[s])


def binomial_tail_lt(k: int, s: float) -> float:
    """``Pr[Bin(k, 1/2) < s]`` at the precision of :func:`binomial_tail_geq`,
    read off the upper tail by symmetry (so a far lower tail is not lost to
    ``1 - Pr[>= s]``)."""
    return binomial_tail_geq(k, k + 1 - math.ceil(s))


def epoch_step(ones, total, coin_ones):
    """One epoch of lines 9-11 on the count every voter shares (``ones`` of
    ``total``), whose voters drew ``coin_ones`` ones if they flipped coins.

    Returns the next epoch's ones count and the fewest voters an adversary
    must silence to keep that count in the coin band (0 when it is in the
    band already).  Vectorised over ``coin_ones``.
    """
    coin_ones = np.asarray(coin_ones)
    if 15 * total <= 30 * ones <= 18 * total:
        following = coin_ones
    else:
        following = np.full_like(coin_ones, total if 30 * ones > 18 * total else 0)
    below = total - 2 * following
    above = -((18 * total - 30 * following) // 12)
    return following, np.maximum(0, np.maximum(below, above))


@dataclass(frozen=True)
class ChainPoint:
    """The chain at one ``(n, t)`` and epoch budget ``epochs``.

    ``curve[c]`` is ``Pr[fallback]`` with ``E = c + 2`` epochs, from
    ``E = 2`` until both ``epochs`` and ``epochs_needed`` are covered;
    ``coin_epochs`` is the expected number of the first ``epochs - 2``
    epochs whose voters flip coins.
    """

    fallback: float
    coin_epochs: float
    epochs_needed: int
    curve: tuple[float, ...]


def _coin_epoch(n: int, budget: int):
    """One coin epoch as flat arrays over (budget left ``B``, coin sum
    ``K``) for the pairs the adversary can afford: the ``B`` of each entry,
    ``Pr[K]`` over ``n - (budget - B)`` voters, and the budget left after
    keeping ``K`` in the band."""
    owner, probability, left = [], [], []
    for spare, row in enumerate(binomial_rows(n - budget, n)):
        m = n - budget + spare
        _, cost = epoch_step(-(-m // 2), m, np.arange(m + 1))
        affordable = np.flatnonzero(cost <= spare)
        owner.append(np.full(affordable.size, spare))
        probability.append(row[affordable])
        left.append(spare - cost[affordable])
    return np.concatenate(owner), np.concatenate(probability), np.concatenate(left)


def chain_point(n: int, t: int, epochs: int) -> ChainPoint:
    """Value-iterate the chain at ``(n, t)`` under the optimal adversary
    (``t = 0``: no adversary): ``Pr[fallback]`` and expected coin epochs
    with ``epochs`` epochs, and the least ``E`` with ``Pr[fallback] <= 1/n``."""
    if not 0 <= t < n:
        raise ValueError(f"need 0 <= t < n, got n={n}, t={t}")
    owner, probability, left = _coin_epoch(n, t)
    fallback = np.ones(t + 1)
    coin_epochs = np.zeros(t + 1)
    curve = [1.0]
    expected_coins = 0.0
    while len(curve) <= epochs - 2 or curve[-1] > 1 / n:
        fallback = np.bincount(
            owner, probability * fallback[left], minlength=t + 1
        )
        coin_epochs = 1 + np.bincount(
            owner, probability * coin_epochs[left], minlength=t + 1
        )
        curve.append(float(fallback[t]))
        if len(curve) - 1 == epochs - 2:
            expected_coins = float(coin_epochs[t])
    return ChainPoint(
        fallback=curve[max(0, epochs - 2)],
        coin_epochs=expected_coins,
        epochs_needed=2 + next(c for c, p in enumerate(curve) if p <= 1 / n),
        curve=tuple(curve),
    )
