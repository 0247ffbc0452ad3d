"""Registration of every runnable protocol with the harness registry.

Importing this module (done lazily by the registry accessors) populates the
registry with the paper's algorithms and all baselines; each is started
by name through :func:`repro.harness.execute`.
"""

from __future__ import annotations

from typing import Any

from ..baselines.ben_or import BenOrVotingProcess
from ..baselines.dolev_strong import DolevStrongProcess
from ..baselines.doubling_gossip import DoublingCollector
from ..baselines.phase_king import PhaseKingProcess
from ..baselines.reliable_broadcast import TRBProcess
from ..core.consensus import build_processes
from ..core.early_stopping import EarlyStoppingConsensus
from ..core.multivalued import MultiValuedConsensus
from ..core.tradeoff import ParamOmissions
from ..params import ProtocolParams
from .registry import ExecutionConfig, ProtocolSpec, register_protocol


def _baseline_budget(n: int, params: ProtocolParams) -> int:
    """Default campaign fault budget for the t < n/2-style baselines."""
    return max(1, n // 8)


def _phase_king_budget(n: int, params: ProtocolParams) -> int:
    """Phase-king needs n > 4t, so the campaign default is capped harder."""
    return max(1, min(n // 8, (n - 1) // 4))


# ---------------------------------------------------------------------------
# The paper's algorithms.
def _build_algorithm1(request: ExecutionConfig):
    processes = build_processes(
        request.inputs,
        t=request.t,
        params=request.params,
        graph_seed=request.graph_seed,
        num_epochs=request.option("num_epochs"),
    )
    return processes, request.t


register_protocol(
    ProtocolSpec(
        name="algorithm1",
        summary="Algorithm 1: O(sqrt(n) log^2 n)-round randomized consensus",
        build=_build_algorithm1,
        default_max_rounds=200_000,
    )
)


def _tradeoff_x(request: ExecutionConfig) -> int:
    return int(request.option("x", max(2, request.n // 16)))


def _build_tradeoff(request: ExecutionConfig):
    processes = [
        ParamOmissions(
            pid,
            request.n,
            request.inputs[pid],
            x=_tradeoff_x(request),
            t=request.t,
            params=request.params,
            graph_seed=request.graph_seed,
        )
        for pid in range(request.n)
    ]
    return processes, processes[0].t


def _tradeoff_extras(run: Any, request: ExecutionConfig) -> dict[str, Any]:
    return {"x": _tradeoff_x(request)}


register_protocol(
    ProtocolSpec(
        name="tradeoff",
        summary="Algorithm 4: time vs randomness trade-off (x super-processes)",
        build=_build_tradeoff,
        default_max_rounds=500_000,
        # Theorem 8 halves the fault tolerance: ParamOmissions must see an
        # unset budget to derive t < n/60 itself, while campaign cells keep
        # building adversaries against Algorithm 1's default.
        derives_own_t=True,
        record_extras=_tradeoff_extras,
    )
)


def _build_early_stopping(request: ExecutionConfig):
    processes = [
        EarlyStoppingConsensus(
            pid,
            request.n,
            request.inputs[pid],
            t=request.t,
            params=request.params,
            graph_seed=request.graph_seed,
            num_epochs=request.option("num_epochs"),
        )
        for pid in range(request.n)
    ]
    return processes, request.t


def _early_stopping_extras(
    run: Any, request: ExecutionConfig
) -> dict[str, Any]:
    return {
        "exit_epochs": sorted(
            {process.exited_epoch for process in run.processes}
        )
    }


register_protocol(
    ProtocolSpec(
        name="early-stopping",
        summary="Algorithm 1 with per-epoch READY polls and majority exit",
        build=_build_early_stopping,
        default_max_rounds=200_000,
        record_extras=_early_stopping_extras,
    )
)


def _build_multivalued(request: ExecutionConfig):
    value_bits = int(request.option("value_bits", 1))
    processes = [
        MultiValuedConsensus(
            pid,
            request.n,
            request.inputs[pid],
            value_bits,
            t=request.t,
            params=request.params,
            graph_seed=request.graph_seed,
        )
        for pid in range(request.n)
    ]
    return processes, request.t


def _multivalued_extras(run: Any, request: ExecutionConfig) -> dict[str, Any]:
    return {"value_bits": int(request.option("value_bits", 1))}


register_protocol(
    ProtocolSpec(
        name="multivalued",
        summary="Multi-valued consensus via bit-prefix agreement on Algorithm 1",
        build=_build_multivalued,
        default_max_rounds=500_000,
        record_extras=_multivalued_extras,
    )
)


# ---------------------------------------------------------------------------
# Baselines.
def _build_ben_or(request: ExecutionConfig):
    coin_pids = request.option("coin_pids")
    processes = [
        BenOrVotingProcess(
            pid,
            request.n,
            request.inputs[pid],
            threshold=request.option("threshold"),
            max_phases=request.option("max_phases"),
            coin_pids=frozenset(coin_pids) if coin_pids is not None else None,
        )
        for pid in range(request.n)
    ]
    return processes, request.t


register_protocol(
    ProtocolSpec(
        name="ben-or",
        summary="Bar-Joseph/Ben-Or randomized biased-majority voting baseline",
        build=_build_ben_or,
        default_t=_baseline_budget,
    )
)


def _build_phase_king(request: ExecutionConfig):
    processes = [
        PhaseKingProcess(pid, request.n, request.inputs[pid], request.t)
        for pid in range(request.n)
    ]
    return processes, request.t


register_protocol(
    ProtocolSpec(
        name="phase-king",
        summary="Berman-Garay-Perry deterministic phase-king baseline (n > 4t)",
        build=_build_phase_king,
        default_t=_phase_king_budget,
    )
)


def _build_dolev_strong(request: ExecutionConfig):
    processes = [
        DolevStrongProcess(pid, request.n, request.inputs[pid], request.t)
        for pid in range(request.n)
    ]
    return processes, request.t


register_protocol(
    ProtocolSpec(
        name="dolev-strong",
        summary="Dolev-Strong chain-relay deterministic baseline (t+1 rounds)",
        build=_build_dolev_strong,
        default_t=_baseline_budget,
    )
)


def _build_trb(request: ExecutionConfig):
    sender = int(request.option("sender", 0))
    value = request.option("value", 1)
    processes = [
        TRBProcess(
            pid,
            request.n,
            sender,
            request.t,
            value=value if pid == sender else None,
        )
        for pid in range(request.n)
    ]
    return processes, request.t


def _trb_extras(run: Any, request: ExecutionConfig) -> dict[str, Any]:
    return {
        "sender": int(request.option("sender", 0)),
        "delivery_rounds": sorted(
            {
                process.delivery_round
                for process in run.processes
                if process.delivery_round is not None
            }
        ),
    }


register_protocol(
    ProtocolSpec(
        name="trb",
        summary="Early-stopping terminating reliable broadcast (Rosu [34])",
        build=_build_trb,
        default_t=_baseline_budget,
        record_extras=_trb_extras,
        uses_inputs=False,
    )
)


def _build_collectors(request: ExecutionConfig):
    quorum = int(
        request.option("quorum", max(1, (request.n - 1) // 2))
    )
    processes = [
        DoublingCollector(pid, request.n, quorum) for pid in range(request.n)
    ]
    return processes, request.t


register_protocol(
    ProtocolSpec(
        name="collectors",
        summary="Section-B.3 doubling collectors (amortization experiment)",
        build=_build_collectors,
        # The amortization experiment chooses its faults per run; nothing
        # is tolerated unless the caller asks.
        default_t=lambda n, params: 0,
        # Per-process decisions differ by design, so the campaign's
        # agreement check would reject it; run it through execute() instead.
        sweepable=False,
        uses_inputs=False,
    )
)
