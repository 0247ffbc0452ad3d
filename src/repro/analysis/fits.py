"""Scaling fits: least-squares and log-log slopes.

Pure-Python least squares — the quantities involved are tiny (a handful of
sweep points), so no numerical library is needed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def least_squares_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Slope of the least-squares line through (xs, ys)."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    variance = sum((x - mean_x) ** 2 for x in xs)
    if variance == 0:
        raise ValueError("xs are constant; slope undefined")
    return covariance / variance


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Exponent estimate: slope of log y against log x.

    A measured series ``y ~ x^p * polylog(x)`` yields a slope close to ``p``
    (slightly above, because of the polylog) — the benchmark's shape check.
    """
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log fit requires positive data")
    return least_squares_slope(
        [math.log(x) for x in xs], [math.log(y) for y in ys]
    )
