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

    def test_randrange_accounting(self):
        source = CountingRandom(2)
        value = source.randrange(10)
        assert 0 <= value < 10
        assert source.bits_drawn == 4  # ceil(log2 10)

    def test_randrange_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CountingRandom(1).randrange(0)

    def test_choice_accounting(self):
        source = CountingRandom(3)
        value = source.choice([10, 20, 30, 40])
        assert value in (10, 20, 30, 40)
        assert source.bits_drawn == 2

    def test_choice_empty_rejected(self):
        with pytest.raises(IndexError):
            CountingRandom(1).choice([])

    def test_sample_accounting(self):
        source = CountingRandom(4)
        sample = source.sample(list(range(8)), 3)
        assert len(set(sample)) == 3
        assert source.bits_drawn == 9

    def test_sample_too_large_rejected(self):
        with pytest.raises(ValueError):
            CountingRandom(1).sample([1, 2], 3)

    def test_randrange_exact_bits_beyond_double_precision(self):
        # ceil(log2(2**53 + 1)) via floats rounds down to 53; the integer
        # accounting must charge (upper - 1).bit_length() = 54.
        source = CountingRandom(7)
        source.randrange(2**53 + 1)
        assert source.bits_drawn == 54

    def test_randrange_huge_bounds(self):
        source = CountingRandom(7)
        source.randrange(2**64)
        assert source.bits_drawn == 64
        source.randrange(2**64 + 1)
        assert source.bits_drawn == 64 + 65

    def test_choice_exact_bits_beyond_double_precision(self):
        source = CountingRandom(8)
        value = source.choice(range(2**53 + 1))
        assert 0 <= value <= 2**53
        assert source.bits_drawn == 54

    def test_sample_exact_bits_beyond_double_precision(self):
        source = CountingRandom(9)
        sample = source.sample(range(2**53 + 1), 2)
        assert len(set(sample)) == 2
        assert source.bits_drawn == 2 * 54

    @given(st.integers(min_value=2, max_value=1 << 80))
    def test_randrange_bits_match_bit_length(self, upper):
        source = CountingRandom(0)
        source.randrange(upper)
        assert source.bits_drawn == (upper - 1).bit_length()

    def test_uniform_counts_double_mantissa(self):
        source = CountingRandom(5)
        value = source.uniform()
        assert 0.0 <= value < 1.0
        assert source.bits_drawn == 53

    def test_shuffle_counts_entropy(self):
        source = CountingRandom(6)
        items = list(range(6))
        source.shuffle(items)
        assert sorted(items) == list(range(6))
        assert source.bits_drawn >= 9  # log2(6!) ~ 9.49

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
