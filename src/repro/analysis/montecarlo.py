"""Monte-Carlo experiment tooling: success rates with confidence intervals.

The paper's guarantees are probabilistic ("whp", "with constant probability
per epoch"); this module measures those probabilities over repeated runs:

* :func:`estimate_rate` — generic trial runner with a Wilson score interval;
* :func:`fallback_rate_vs_epochs` — the epoch-budget ablation: how the
  probability of dropping to the deterministic fallback decays with the
  number of epochs (Lemma 10 predicts a geometric decay: each good epoch
  triple unifies with constant probability; ``experiments/E-ABL1.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from ..core import run_consensus
from ..params import ProtocolParams
from .experiments import mixed_inputs


@dataclass(frozen=True)
class RateEstimate:
    """A Bernoulli rate estimate with a Wilson 95% confidence interval."""

    successes: int
    trials: int
    rate: float
    low: float
    high: float

    def __str__(self) -> str:
        return (
            f"{self.rate:.3f} [{self.low:.3f}, {self.high:.3f}] "
            f"({self.successes}/{self.trials})"
        )


def wilson_interval(
    successes: int, trials: int, z: float = 1.959964
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes {successes} out of range for {trials} trials"
        )
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


def estimate_rate(
    trial: Callable[[int], bool], trials: int, seed: int = 0
) -> RateEstimate:
    """Run ``trial(seed_i)`` repeatedly and estimate its success rate."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    successes = sum(1 for index in range(trials) if trial(seed + index))
    low, high = wilson_interval(successes, trials)
    return RateEstimate(
        successes=successes,
        trials=trials,
        rate=successes / trials,
        low=low,
        high=high,
    )


# ---------------------------------------------------------------------------
# Paper-specific Monte-Carlo experiments.
# ---------------------------------------------------------------------------

def fallback_rate_vs_epochs(
    n: int,
    epoch_counts: Sequence[int],
    trials: int = 20,
    params: ProtocolParams | None = None,
    seed: int = 0,
) -> list[tuple[int, RateEstimate]]:
    """Probability of hitting the Dolev-Strong fallback vs epoch budget.

    Lemma 10 gives a constant per-epoch unification probability on balanced
    inputs, so the fallback rate should decay geometrically in the number
    of epochs — the ablation that justifies the paper's
    Theta(t/sqrt(n) log n) epoch count.
    """
    params = params if params is not None else ProtocolParams.practical()
    inputs = mixed_inputs(n)
    results = []
    for epochs in epoch_counts:
        def fell_back(run_seed: int, epochs=epochs) -> bool:
            run = run_consensus(
                inputs,
                params=params,
                num_epochs=epochs,
                seed=run_seed,
            )
            run.decision  # also asserts correctness
            return run.ran_deterministic_fallback

        results.append(
            (epochs, estimate_rate(fell_back, trials, seed=seed * 1000 + 17))
        )
    return results
