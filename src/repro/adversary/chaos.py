"""ChaosAdversary: a randomized legal-move fuzzer for protocol testing.

Hand-written strategies probe failure modes their author thought of; the
chaos adversary probes everything else.  Each round it draws a random but
*legal* combination of moves:

* with probability ``corrupt_rate`` (and budget left), corrupt a uniformly
  random healthy process — sometimes a burst of several (each further
  one with probability ``BURST_RATE``);
* for every faulty-incident message, draw an omission from a per-(sender,
  recipient) biased coin whose bias is itself randomized per link — so some
  links are reliably dead, some flaky, some clean, and the pattern differs
  every run;
* occasionally (probability ``FLIP_RATE`` per look) flips a link's bias
  (the "faulty process changes who it talks to round by round" behaviour
  Section B.3 highlights as the difference from crashes).

Used by the property-based fuzz tests: Algorithm 1 (and friends) must
satisfy agreement/validity/termination under *any* seed of this adversary,
because every generated schedule is within the model.
"""

from __future__ import annotations

import random

from ..runtime import Adversary, AdversaryAction, AdversaryContext, NetworkView
from ..runtime.randomness import stable_seed

#: Chance that a corruption burst grows by one more process.
BURST_RATE = 0.02
#: Chance that a link's omission bias is redrawn when it is looked up.
FLIP_RATE = 0.05


class ChaosAdversary(Adversary):
    """Randomized legal adversary for fuzzing (see module docstring)."""

    def __init__(self, seed: int = 0, corrupt_rate: float = 0.08) -> None:
        if not 0.0 <= corrupt_rate <= 1.0:
            raise ValueError(f"corrupt_rate must be in [0, 1], got {corrupt_rate}")
        self._rng = random.Random(stable_seed("chaos", seed))
        self.corrupt_rate = corrupt_rate
        #: Per-link omission bias, assigned lazily per (sender, recipient).
        self._link_bias: dict[tuple[int, int], float] = {}

    def setup(self, ctx: AdversaryContext) -> None:
        self._n = ctx.n

    def _bias(self, link: tuple[int, int]) -> float:
        bias = self._link_bias.get(link)
        if bias is None or self._rng.random() < FLIP_RATE:
            # Mixture: dead links, flaky links, clean links.
            roll = self._rng.random()
            if roll < 0.3:
                bias = 1.0
            elif roll < 0.6:
                bias = self._rng.uniform(0.2, 0.8)
            else:
                bias = 0.0
            self._link_bias[link] = bias
        return bias

    def act(self, view: NetworkView) -> AdversaryAction:
        rng = self._rng
        corrupt: set[int] = set()
        healthy = [
            pid for pid in range(self._n) if pid not in view.faulty
        ]
        budget = view.budget_left
        if healthy and budget > 0 and rng.random() < self.corrupt_rate:
            count = 1
            while (
                count < budget
                and count < len(healthy)
                and rng.random() < BURST_RATE
            ):
                count += 1
            corrupt.update(rng.sample(healthy, count))

        faulty = view.faulty | corrupt
        omit = frozenset(
            index
            for index, message in enumerate(view.messages)
            if (message.sender in faulty or message.recipient in faulty)
            and rng.random() < self._bias((message.sender, message.recipient))
        )
        return AdversaryAction(corrupt=frozenset(corrupt), omit=omit)
