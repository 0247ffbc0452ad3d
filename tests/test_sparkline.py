"""Tests for the terminal visualization helpers."""

from hypothesis import given, strategies as st

from repro.analysis.sparkline import BARS, render_series, sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_uses_lowest_bar(self):
        assert sparkline([5, 5, 5]) == BARS[0] * 3

    def test_extremes_map_to_extreme_bars(self):
        line = sparkline([0, 10])
        assert line[0] == BARS[0]
        assert line[1] == BARS[-1]

    def test_resampling_caps_width(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10

    def test_short_series_not_padded(self):
        assert len(sparkline([1, 2, 3], width=10)) == 3

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=1,
            max_size=50,
        )
    )
    def test_output_only_bar_characters(self, values):
        line = sparkline(values)
        assert len(line) == len(values)
        assert set(line) <= set(BARS)

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200
        ),
        st.integers(min_value=1, max_value=40),
    )
    def test_width_respected(self, values, width):
        assert len(sparkline(values, width)) <= max(width, len(values))


class TestRenderSeries:
    def test_contains_label_and_range(self):
        text = render_series("traffic", [1, 2, 3])
        assert text.startswith("traffic:")
        assert "[1..3]" in text

    def test_empty_series(self):
        assert "(empty)" in render_series("x", [])
