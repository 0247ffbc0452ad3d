"""Protocol parameters for the omission-tolerant consensus algorithms.

The paper states its algorithms with explicit asymptotic constants (for example
``Delta = 832 * log n`` in Theorem 4 and ``t < n / 30`` in Theorem 1).  Those
constants are chosen to make the union bounds in the proofs go through for
*every* n; at the system sizes a simulator can reach they would make the
"sparse" spreading graph complete and collapse the epoch count to zero or blow
it up by orders of magnitude.

:class:`ProtocolParams` therefore carries every tunable of the protocol with
two presets:

* :meth:`ProtocolParams.paper` — the verbatim constants from the paper, usable
  for property checks and very small systems;
* :meth:`ProtocolParams.practical` — the same functional forms
  (``Theta(log n)`` degree, ``Theta(log n)`` spreading rounds,
  ``Theta(t / sqrt(n) * log n)`` epochs) with small multiplicative constants so
  that measured scaling *shapes* match the theory at simulable n.

All derived quantities (degree, epoch count, rounds per phase) are computed
through methods of this class so that every protocol and benchmark agrees on
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


def log2ceil(x: float) -> int:
    """Return ``ceil(log2(x))`` for x >= 1, and 0 for x in (0, 1]."""
    if x <= 0:
        raise ValueError(f"log2ceil requires a positive argument, got {x!r}")
    if x <= 1:
        return 0
    return int(math.ceil(math.log2(x)))


def default_fault_bound(n: int, fraction_denominator: int = 31) -> int:
    """Largest t strictly below ``n / fraction_denominator``, but at least 0.

    The paper's Theorem 1 tolerates ``t < n / 30``; using denominator 31 keeps
    a safety margin at small n where integer effects bite.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    t = (n - 1) // fraction_denominator
    return max(0, t)


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable constants of the PODC'24 omission-consensus protocols.

    Attributes
    ----------
    delta_factor:
        Spreading-graph expected degree is ``delta_factor * ceil(log2 n)``
        (``Delta`` in Theorem 4; the paper uses 832).
    delta_min:
        Floor on the degree so tiny systems stay connected.
    operative_degree_divisor:
        A process stays operative while it hears from at least
        ``Delta / operative_degree_divisor`` spreading-graph neighbours
        (the paper uses ``Delta / 3``).
    spread_rounds_factor:
        ``GroupBitsSpreading`` runs ``spread_rounds_factor * ceil(log2 n)``
        rounds (the paper uses 8).
    spread_rounds_min:
        Floor on the number of spreading rounds.
    epoch_factor:
        Number of epochs is ``ceil(epoch_factor * t / sqrt(n) * log2 n)``
        (the paper's main loop runs ``t / sqrt(n) * log n`` epochs).
    epoch_min:
        Floor on the epoch count so small runs still vote at least a few
        times.
    group_relay_quorum_divisor:
        A source in ``GroupRelay`` stays operative only if it hears from more
        than ``|W| / group_relay_quorum_divisor`` transmitters (paper: 2).
    one_threshold_num / zero_threshold_num / decide_hi_num / decide_lo_num:
        Numerators (over :attr:`threshold_den`) of the biased-majority
        thresholds of Algorithm 1 lines 9-12: adopt 1 at >= 18/30, adopt 0 at
        < 15/30, decide at > 27/30 or < 3/30.
    threshold_den:
        Common denominator of the voting thresholds (paper: 30).
    fault_fraction_denominator:
        The protocol tolerates ``t < n / fault_fraction_denominator``
        (paper: 30 for Algorithm 1, 60 for Algorithm 4).
    """

    delta_factor: int = 832
    delta_min: int = 4
    operative_degree_divisor: int = 3
    spread_rounds_factor: int = 8
    spread_rounds_min: int = 3
    epoch_factor: float = 1.0
    epoch_min: int = 1
    group_relay_quorum_divisor: int = 2
    one_threshold_num: int = 18
    zero_threshold_num: int = 15
    decide_hi_num: int = 27
    decide_lo_num: int = 3
    threshold_den: int = 30
    fault_fraction_denominator: int = 30

    def __post_init__(self) -> None:
        if self.delta_factor < 1:
            raise ValueError("delta_factor must be >= 1")
        if self.delta_min < 1:
            raise ValueError("delta_min must be >= 1")
        if self.operative_degree_divisor < 1:
            raise ValueError("operative_degree_divisor must be >= 1")
        if self.spread_rounds_min < 1:
            raise ValueError("spread_rounds_min must be >= 1")
        if self.epoch_min < 0:
            raise ValueError("epoch_min must be >= 0")
        if not (
            0
            <= self.decide_lo_num
            < self.zero_threshold_num
            <= self.one_threshold_num
            < self.decide_hi_num
            <= self.threshold_den
        ):
            raise ValueError(
                "voting thresholds must satisfy "
                "0 <= decide_lo < zero <= one < decide_hi <= den, got "
                f"{self.decide_lo_num}/{self.zero_threshold_num}/"
                f"{self.one_threshold_num}/{self.decide_hi_num}"
                f"/{self.threshold_den}"
            )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> ProtocolParams:
        """The verbatim constants from the paper (Theorems 1, 4, 5)."""
        return cls()

    @classmethod
    def practical(cls) -> ProtocolParams:
        """Scaled-down constants preserving the paper's functional forms.

        Suitable for simulation at n up to a few thousand; see DESIGN.md
        ("Substitutions") for the rationale.
        """
        return cls(
            delta_factor=4,
            delta_min=6,
            spread_rounds_factor=2,
            spread_rounds_min=3,
            epoch_factor=1.0,
            # Each epoch unifies the candidate bits with constant
            # probability (Lemma 10); with five epochs about one balanced
            # fault-free run in seven still falls back at n = 64-256.
            epoch_min=5,
        )

    def with_overrides(self, **changes: object) -> ProtocolParams:
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def delta(self, n: int) -> int:
        """Spreading-graph target degree ``Delta`` for an n-process system."""
        if n <= 1:
            return 0
        raw = self.delta_factor * max(1, log2ceil(n))
        return min(n - 1, max(self.delta_min, raw))

    def operative_degree_threshold(self, n: int) -> int:
        """Messages per spreading round needed to stay operative (``Delta/3``)."""
        return max(1, self.delta(n) // self.operative_degree_divisor)

    def spread_rounds(self, n: int) -> int:
        """Rounds of ``GroupBitsSpreading`` (paper: ``8 log n``)."""
        raw = self.spread_rounds_factor * max(1, log2ceil(n))
        return max(self.spread_rounds_min, raw)

    def num_epochs(self, n: int, t: int) -> int:
        """Epoch count of Algorithm 1 (paper: ``t / sqrt(n) * log n``)."""
        if n <= 1:
            return 0
        raw = self.epoch_factor * (t / math.sqrt(n)) * max(1, log2ceil(n))
        return max(self.epoch_min, int(math.ceil(raw)))

    def max_faults(self, n: int) -> int:
        """Largest fault budget t the preset tolerates for n processes."""
        return default_fault_bound(n, self.fault_fraction_denominator + 1)

    def validate_fault_budget(self, n: int, t: int) -> None:
        """Raise ``ValueError`` when t exceeds the tolerated fraction."""
        if t < 0:
            raise ValueError(f"t must be non-negative, got {t}")
        if t * self.fault_fraction_denominator >= n and t > 0:
            raise ValueError(
                f"fault budget t={t} violates t < n/"
                f"{self.fault_fraction_denominator} for n={n}"
            )

    # Voting thresholds -------------------------------------------------
    def adopt_one(self, ones: int, total: int) -> bool:
        """Algorithm 1 line 9: adopt candidate value 1."""
        return ones * self.threshold_den > self.one_threshold_num * total

    def adopt_zero(self, ones: int, total: int) -> bool:
        """Algorithm 1 line 10: adopt candidate value 0."""
        return ones * self.threshold_den < self.zero_threshold_num * total

    def ready_to_decide(self, ones: int, total: int) -> bool:
        """Algorithm 1 line 12: the safety rule that sets ``decided``."""
        hi = ones * self.threshold_den > self.decide_hi_num * total
        lo = ones * self.threshold_den < self.decide_lo_num * total
        return hi or lo
