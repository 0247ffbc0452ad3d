"""Baseline consensus protocols the paper compares against.

* :class:`DolevStrongProcess` — the deterministic O(t)-round comparator
  ([15], also Algorithm 1's fallback);
* :class:`PhaseKingProcess` — classic deterministic phase-king, a second
  deterministic point of comparison;
* :class:`BenOrVotingProcess` — Bar-Joseph/Ben-Or-style randomized
  biased-majority voting with full per-round broadcasts (the crash-model
  ancestor Algorithm 1 economizes).
"""

from .ben_or import BenOrVotingProcess
from .doubling_gossip import (
    DoublingCollector,
    ResponseStarver,
    measure_amortization,
)
from .dolev_strong import DolevStrongProcess, dolev_strong_consensus
from .reliable_broadcast import BOTTOM, TRBProcess
from .phase_king import PhaseKingProcess

__all__ = [
    "DolevStrongProcess",
    "dolev_strong_consensus",
    "PhaseKingProcess",
    "BenOrVotingProcess",
    "DoublingCollector",
    "ResponseStarver",
    "measure_amortization",
    "BOTTOM",
    "TRBProcess",
]
