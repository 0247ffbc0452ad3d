"""Tests for the analysis helpers: fits, theory curves, Table 1 (E-T1's
measure)."""

import math

import pytest

from repro.analysis import least_squares_slope, loglog_slope, theory
from repro.analysis.report import _ascii_table, table1


class TestFits:
    def test_exact_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0, 4.0, 6.0, 8.0]
        assert math.isclose(least_squares_slope(xs, ys), 2.0)

    def test_loglog_recovers_power(self):
        xs = [16, 32, 64, 128, 256]
        ys = [x**1.5 for x in xs]
        assert math.isclose(loglog_slope(xs, ys), 1.5, rel_tol=1e-9)

    def test_loglog_with_polylog_slightly_above(self):
        xs = [2**k for k in range(5, 12)]
        ys = [x * math.log2(x) ** 2 for x in xs]
        slope = loglog_slope(xs, ys)
        assert 1.0 < slope < 1.7

    def test_validation(self):
        with pytest.raises(ValueError):
            least_squares_slope([1.0], [2.0])
        with pytest.raises(ValueError):
            least_squares_slope([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            loglog_slope([1.0, -2.0], [1.0, 2.0])


class TestTheoryCurves:
    def test_theorem1_shapes(self):
        # Doubling n with t = n/32 multiplies rounds by ~sqrt(2) * polylog.
        small = theory.theorem1_rounds(1024, 32)
        large = theory.theorem1_rounds(4096, 128)
        assert 1.9 < large / small < 3.0

    def test_theorem3_invariant_constant_in_x(self):
        n = 4096
        products = [
            theory.theorem3_rounds(n, x) * theory.theorem3_random_bits(n, x)
            for x in (1, 4, 16, 64)
        ]
        assert max(products) / min(products) < 1.001

    def test_lower_bounds_positive(self):
        assert theory.theorem2_product(1024, 33) > 0
        assert theory.bar_joseph_ben_or_rounds(1024, 33) > 0
        assert theory.abraham_messages(33) > 0


class TestTable1:
    def test_rows_cover_all_results(self):
        rows = table1(n=36, seed=0)["table"]
        assert rows[3][4].startswith("x=2 ")
        results = [row[0] for row in rows[1:]]
        assert any("Thm 1" in result for result in results)
        assert any("Thm 3" in result for result in results)
        assert any("[10]" in result for result in results)
        assert any("[1]" in result for result in results)
        assert any("Thm 2" in result for result in results)

    def test_render_is_aligned_ascii(self):
        rows = table1(n=36, seed=1)["table"]
        text = _ascii_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("+")
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # perfectly aligned
