"""The unified execution harness: protocol registry + observer wiring.

``execute(name, ...)`` runs any registered protocol on the synchronous
substrate and returns a :class:`repro.core.consensus.ConsensusRun`; it is
the one way to start a run.  The registry makes every protocol sweepable
by the campaign runner and the CLI, and ``observers=...`` attaches :class:`RoundObserver` instances
to any run without touching protocol code.  Every run already carries the
engine's own account of itself as ``run.result.report``
(:class:`repro.runtime.RunReport`).
"""

from ..runtime import RoundObserver
from .registry import (
    CELL_RECORD_VERSION,
    ExecutionConfig,
    ProtocolSpec,
    available_protocols,
    capability_fingerprint,
    execute,
    protocol_spec,
    register_protocol,
    run_config,
)

__all__ = [
    "CELL_RECORD_VERSION",
    "ExecutionConfig",
    "ProtocolSpec",
    "RoundObserver",
    "available_protocols",
    "capability_fingerprint",
    "execute",
    "protocol_spec",
    "register_protocol",
    "run_config",
]
