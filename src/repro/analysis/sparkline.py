"""Tiny terminal visualizations: sparklines.

Benchmarks and the CLI render per-round traffic profiles and sweep curves
inline, without any plotting dependency.
"""

from __future__ import annotations

from collections.abc import Sequence

#: Eight block heights, lowest to highest.
BARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int | None = None) -> str:
    """Render a numeric series as a one-line block-character sparkline.

    ``width`` resamples the series (bucket means) to at most that many
    characters; by default every value gets one character.
    """
    if not values:
        return ""
    series = list(float(v) for v in values)
    if width is not None and width > 0 and len(series) > width:
        bucket = len(series) / width
        series = [
            sum(series[int(i * bucket): max(int(i * bucket) + 1,
                                            int((i + 1) * bucket))])
            / max(1, len(series[int(i * bucket): max(int(i * bucket) + 1,
                                                     int((i + 1) * bucket))]))
            for i in range(width)
        ]
    low = min(series)
    high = max(series)
    span = high - low
    if span <= 0:
        return BARS[0] * len(series)
    # Divide before scaling: (v - low) / span is always a finite value in
    # [0, 1], even when span is subnormal (where 1/span overflows to inf
    # and (v - low) * inf yields nan for v == low).
    return "".join(
        BARS[round((v - low) / span * (len(BARS) - 1))] for v in series
    )


def render_series(
    label: str, values: Sequence[float], width: int = 60
) -> str:
    """Label + sparkline + min/max annotation on one line."""
    if not values:
        return f"{label}: (empty)"
    return (
        f"{label}: {sparkline(values, width)} "
        f"[{min(values):g}..{max(values):g}]"
    )
