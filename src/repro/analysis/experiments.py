"""The sweep driver shared by the report, benchmarks and examples.

:func:`measure` runs one registered protocol across system sizes on the
synchronous substrate and returns plain dataclasses with the paper's three
complexity measures, so every sweep is a call, not a new driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from ..adversary import GALLERY
from ..harness import ExecutionConfig, protocol_spec, run_config
from ..params import ProtocolParams
from ..runtime import Adversary


@dataclass(frozen=True)
class ScalingPoint:
    """One (n, adversary) measurement of a consensus protocol."""

    n: int
    t: int
    rounds: int
    bits_sent: int
    messages_sent: int
    random_bits: int
    random_calls: int
    decision: int
    used_fallback: bool


def mixed_inputs(n: int) -> list[int]:
    """The hardest input assignment: a perfectly balanced split."""
    return [pid % 2 for pid in range(n)]


def measure(
    protocol: str,
    ns: Sequence[int],
    *,
    adversary: str | Callable[[int, int, int], Adversary | None] = "none",
    t: Callable[[int], int] | None = None,
    params: ProtocolParams | None = None,
    seed: int | Callable[[int], int] = 0,
    options: Mapping[str, Any] | None = None,
    whp_retries: int = 1,
) -> list[ScalingPoint]:
    """Run a registered protocol on balanced inputs at each n in ``ns``.

    ``adversary`` is a :data:`repro.adversary.GALLERY` name or an
    ``(n, t, seed)`` factory.  The budget is the registry's default for the
    protocol unless ``t`` (a map n -> t) overrides it; ``seed`` is one
    integer or a map n -> seed.  ``options`` are the protocol's extras
    (an x-sweep of Algorithm 4 is one call per ``{"x": x}``).

    ``whp_retries``: the paper's complexity bounds describe the whp fast
    path; at simulable n Algorithm 1's truncated epoch budget drops to the
    Dolev-Strong fallback with a few percent probability, whose O(n^2 t)
    bits would dominate a scaling plot.  A run that hit the deterministic
    fallback is retried (seed + 7919 per attempt) up to ``whp_retries``
    times; the last attempt is reported either way, and ``used_fallback``
    records what happened.
    """
    spec = protocol_spec(protocol)
    params = params if params is not None else ProtocolParams.practical()
    build_adversary = (
        GALLERY[adversary] if isinstance(adversary, str) else adversary
    )
    points = []
    for n in ns:
        # As in a campaign cell: an unset budget is left to the protocol,
        # and the adversary is built against the registry's default.
        asked = t(n) if t is not None else None
        budget = asked if asked is not None else spec.campaign_t(n, params)
        base_seed = seed(n) if callable(seed) else seed
        for attempt in range(max(1, whp_retries)):
            run_seed = base_seed + 7919 * attempt
            config = ExecutionConfig(
                spec.name,
                mixed_inputs(n),
                t=asked,
                params=params,
                seed=run_seed,
                options=options,
            )
            run = run_config(
                config, build_adversary(n, budget, run_seed), spec=spec
            )
            if not run.ran_deterministic_fallback:
                break
        metrics = run.metrics
        points.append(
            ScalingPoint(
                n=n,
                t=budget,
                rounds=run.result.time_to_agreement(),
                bits_sent=metrics.bits_sent,
                messages_sent=metrics.messages_sent,
                random_bits=metrics.random_bits,
                random_calls=metrics.random_calls,
                decision=run.decision,
                used_fallback=run.ran_deterministic_fallback,
            )
        )
    return points
