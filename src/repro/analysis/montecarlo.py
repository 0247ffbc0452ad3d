"""Monte-Carlo rates: the Wilson score interval.

The paper's guarantees are probabilistic ("whp", "with constant probability
per epoch").  A rate is counted over seeded campaign cells (the epoch-budget
ablation, ``experiments/E-ABL1.json``, sums ``fallback`` per budget) and
reported with the interval computed here.
"""

from __future__ import annotations

import math


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95 % score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes {successes} out of range for {trials} trials"
        )
    z = 1.959964  # the two-sided 95 % normal quantile
    p_hat = successes / trials
    denominator = 1 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(
            p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)
        )
        / denominator
    )
    low = max(0.0, center - margin)
    high = min(1.0, center + margin)
    if successes == trials:
        high = 1.0
    if successes == 0:
        low = 0.0
    return low, high
