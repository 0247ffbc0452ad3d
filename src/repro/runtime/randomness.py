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
import random


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

    Each draw counts as one *call* to the random source (the paper's
    lower-bound currency) however many bits it consumes; the bit count is
    the number of uniform bits drawn.
    """

    __slots__ = ("_rng", "calls", "bits_drawn")

    def __init__(self, seed: int | None = None) -> None:
        self._rng = random.Random(seed)
        self.calls = 0
        self.bits_drawn = 0

    def bit(self) -> int:
        """Draw a single uniform bit."""
        self.calls += 1
        self.bits_drawn += 1
        return self._rng.getrandbits(1)

    def bits(self, k: int) -> int:
        """Draw ``k`` uniform bits, returned as an integer in ``[0, 2^k)``."""
        if k < 0:
            raise ValueError(f"cannot draw a negative number of bits: {k}")
        if k == 0:
            return 0
        self.calls += 1
        self.bits_drawn += k
        return self._rng.getrandbits(k)


def derive_seeds(master_seed: int, count: int, salt: str = "") -> list[int]:
    """Derive ``count`` stable per-process seeds from one master seed.

    Uses a dedicated PRNG stream (not any process's source) so the derivation
    itself costs the protocols nothing.
    """
    stream = random.Random(stable_seed(master_seed, salt))
    return [stream.getrandbits(63) for _ in range(count)]
