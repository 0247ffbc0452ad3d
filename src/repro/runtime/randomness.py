"""Counted random sources.

The paper's third complexity measure is *randomness*: the total number of
random bits drawn, and (for the lower bound) the number of *calls* to a random
source.  :class:`CountingRandom` wraps :class:`random.Random` and meters both,
so protocols that draw randomness through it are automatically accounted in
:class:`repro.runtime.metrics.Metrics`.

Protocol code must draw randomness *only* through its process's
``CountingRandom`` — the simulator asserts nothing, but the benchmarks are
meaningless otherwise.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Sequence
from typing import TypeVar

T = TypeVar("T")


def _range_bits(upper: int) -> int:
    """Uniform bits needed to index ``[0, upper)``: ``(upper-1).bit_length()``.

    Computed in integer arithmetic; ``ceil(log2(upper))`` via floats silently
    under-charges near and above 2^53 (e.g. ``2**64 + 1`` rounds to exactly
    2^64 as a double, so the float path would charge 64 bits instead of 65).
    """
    return (upper - 1).bit_length() if upper > 1 else 0


def stable_seed(*parts: object) -> int:
    """Derive a run-independent 63-bit seed from arbitrary labels.

    Python's built-in ``hash`` is salted per interpreter run, so seeds built
    from strings/tuples must go through a stable digest to keep executions
    reproducible across runs and machines.
    """
    digest = hashlib.blake2b(
        repr(parts).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1


class CountingRandom:
    """A random source that meters calls and bits drawn.

    Each public method counts as one *call* to the random source (the paper's
    lower-bound currency) regardless of how many bits it consumes; the bit
    count is the number of uniform bits logically required by the request.
    """

    __slots__ = ("_rng", "calls", "bits_drawn")

    def __init__(self, seed: int | None = None) -> None:
        self._rng = random.Random(seed)
        self.calls = 0
        self.bits_drawn = 0

    # ------------------------------------------------------------------
    def _account(self, bits: int) -> None:
        self.calls += 1
        self.bits_drawn += bits

    def reseed(self, seed: int) -> None:
        """Replace the underlying stream; counters keep accumulating.

        Used by the engine's fork facility (rollout adversaries replay a
        recorded prefix on the original stream, then continue on fresh
        randomness — the adversary may know all *drawn* bits, never future
        ones).
        """
        self._rng = random.Random(seed)

    def bit(self) -> int:
        """Draw a single uniform bit."""
        self._account(1)
        return self._rng.getrandbits(1)

    def bits(self, k: int) -> int:
        """Draw ``k`` uniform bits, returned as an integer in ``[0, 2^k)``."""
        if k < 0:
            raise ValueError(f"cannot draw a negative number of bits: {k}")
        if k == 0:
            return 0
        self._account(k)
        return self._rng.getrandbits(k)

    def randrange(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)``; charged ``ceil(log2 upper)`` bits."""
        if upper <= 0:
            raise ValueError(f"randrange upper bound must be positive: {upper}")
        self._account(_range_bits(upper))
        return self._rng.randrange(upper)

    def uniform(self) -> float:
        """Uniform float in [0, 1); charged 53 bits (one double mantissa)."""
        self._account(53)
        return self._rng.random()

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform element of ``seq``; charged ``ceil(log2 len)`` bits."""
        if not seq:
            raise IndexError("cannot choose from an empty sequence")
        self._account(_range_bits(len(seq)))
        return seq[self._rng.randrange(len(seq))]

    def sample(self, population: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements; charged ``k * ceil(log2 len)`` bits."""
        size = len(population)
        if k > size:
            raise ValueError(f"sample size {k} exceeds population {size}")
        self._account(k * _range_bits(size))
        return self._rng.sample(population, k)

    def shuffle(self, items: list[T]) -> None:
        """Shuffle ``items`` in place; charged ``log2(len!)`` bits."""
        size = len(items)
        bits = int(math.ceil(math.lgamma(size + 1) / math.log(2))) if size > 1 else 0
        self._account(bits)
        self._rng.shuffle(items)


def derive_seeds(master_seed: int, count: int, salt: str = "") -> list[int]:
    """Derive ``count`` stable per-process seeds from one master seed.

    Uses a dedicated PRNG stream (not any process's source) so the derivation
    itself costs the protocols nothing.
    """
    stream = random.Random(stable_seed(master_seed, salt))
    return [stream.getrandbits(63) for _ in range(count)]
