"""Baseline consensus protocols the paper compares against.

* :class:`DolevStrongProcess` — the deterministic O(t)-round comparator
  ([15], also Algorithm 1's fallback);
* :class:`PhaseKingProcess` — classic deterministic phase-king, a second
  deterministic point of comparison;
* :class:`BenOrVotingProcess` — Bar-Joseph/Ben-Or-style randomized
  biased-majority voting with full per-round broadcasts (the crash-model
  ancestor Algorithm 1 economizes).
"""

from .ben_or import BenOrVotingProcess, run_ben_or
from .doubling_gossip import (
    CrashCollectors,
    DoublingCollector,
    ResponseStarver,
    measure_amortization,
)
from .dolev_strong import (
    DolevStrongProcess,
    dolev_strong_consensus,
    run_dolev_strong,
)
from .reliable_broadcast import BOTTOM, TRBProcess, run_trb
from .phase_king import PhaseKingProcess, run_phase_king

__all__ = [
    "DolevStrongProcess",
    "dolev_strong_consensus",
    "run_dolev_strong",
    "PhaseKingProcess",
    "run_phase_king",
    "BenOrVotingProcess",
    "run_ben_or",
    "CrashCollectors",
    "DoublingCollector",
    "ResponseStarver",
    "measure_amortization",
    "BOTTOM",
    "TRBProcess",
    "run_trb",
]
