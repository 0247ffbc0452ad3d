"""repro — Nearly-Optimal Consensus Tolerating Adaptive Omissions (PODC'24).

A full reproduction of Hajiaghayi, Kowalski & Olkowski's consensus
algorithms against an adaptive, full-information omission adversary,
together with the synchronous substrate, adversary gallery, baselines,
and lower-bound machinery.

Quickstart::

    from repro import execute
    from repro.adversary import SilenceAdversary

    run = execute("algorithm1", [pid % 2 for pid in range(100)],
                  adversary=SilenceAdversary(range(3)))
    print(run.decision, run.metrics.rounds, run.metrics.bits_sent)
"""

from .core import ConsensusRun, OptimalOmissionsConsensus
from .harness import execute
from .params import ProtocolParams, default_fault_bound
from .runtime import (
    Adversary,
    AdversaryAction,
    ExecutionResult,
    Metrics,
    NetworkView,
    SyncNetwork,
    SyncProcess,
)

__version__ = "1.0.0"

__all__ = [
    "ConsensusRun",
    "OptimalOmissionsConsensus",
    "execute",
    "ProtocolParams",
    "default_fault_bound",
    "Adversary",
    "AdversaryAction",
    "ExecutionResult",
    "Metrics",
    "NetworkView",
    "SyncNetwork",
    "SyncProcess",
    "__version__",
]
