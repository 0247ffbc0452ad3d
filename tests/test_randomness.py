"""Unit tests for the counted random source and seed derivation."""

import pytest
from hypothesis import given, strategies as st

from repro.runtime import CountingRandom, derive_seeds
from repro.runtime.randomness import stable_seed


class TestCountingRandom:
    def test_bit_accounting(self):
        source = CountingRandom(1)
        values = [source.bit() for _ in range(10)]
        assert all(value in (0, 1) for value in values)
        assert source.calls == 10
        assert source.bits_drawn == 10

    def test_bits_accounting(self):
        source = CountingRandom(1)
        value = source.bits(16)
        assert 0 <= value < 1 << 16
        assert source.calls == 1
        assert source.bits_drawn == 16

    def test_zero_bits_free(self):
        source = CountingRandom(1)
        assert source.bits(0) == 0
        assert source.calls == 0

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            CountingRandom(1).bits(-1)

    def test_determinism(self):
        a = CountingRandom(99)
        b = CountingRandom(99)
        assert [a.bit() for _ in range(32)] == [b.bit() for _ in range(32)]

    @given(st.lists(st.integers(min_value=1, max_value=24), max_size=30))
    def test_accounting_is_sum_of_requests(self, requests):
        source = CountingRandom(0)
        for request in requests:
            source.bits(request)
        assert source.calls == len(requests)
        assert source.bits_drawn == sum(requests)


class TestSeedDerivation:
    def test_stable_seed_deterministic(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)
        assert stable_seed("a", 1) != stable_seed("a", 2)

    def test_stable_seed_fits_prng(self):
        assert 0 <= stable_seed("anything", 42, (1, 2)) < 1 << 63

    def test_derive_seeds_reproducible(self):
        assert derive_seeds(7, 5) == derive_seeds(7, 5)
        assert derive_seeds(7, 5) != derive_seeds(8, 5)
        assert derive_seeds(7, 5, salt="x") != derive_seeds(7, 5, salt="y")

    def test_derive_seeds_distinct_per_process(self):
        seeds = derive_seeds(0, 64)
        assert len(set(seeds)) == 64
