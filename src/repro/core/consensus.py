"""``OptimalOmissionsConsensus`` — Algorithm 1 / Theorems 1 and 5.

The paper's main contribution: randomized consensus against an adaptive,
full-information omission adversary controlling ``t < n/30`` processes, in
``O(sqrt(n) log^2 n)`` rounds, ``O(n^2 log^3 n)`` communication bits and
``O(n^{3/2} log^2 n)`` random bits, whp.

Epoch structure (main loop, lines 5-13):

1. ``GroupBitsAggregation`` — operative counts of 0s/1s within each
   sqrt-decomposition group, up a binary bag tree (Algorithm 2);
2. ``GroupBitsSpreading`` — gossip of the per-group counts along the sparse
   spreading graph (Algorithm 3);
3. the biased-majority vote rule with safety thresholds (lines 9-12).

Afterwards (lines 14-16, :func:`disseminate`) decided operative processes
broadcast their bit and inoperative processes adopt any received bit;
undecided operative processes fall back (lines 17-20,
:func:`deterministic_fallback`) to the deterministic Dolev-Strong-style
protocol and broadcast its outcome.  Both broadcasts are ``(TAG_DECISION,
bit)``, read with :func:`~repro.runtime.tagged` like every message here.

Each part is stated once, over an arbitrary member subset: one epoch is
:func:`epoch_program`, and lines 5-16 are the standalone sub-protocol
:func:`optimal_epochs_and_dissemination` — Algorithm 4 (``ParamOmissions``)
runs exactly this *truncated* form inside each super-process and ends in the
same two tail functions; the early-stopping variant is the same epoch plus a
poll round.

Every process runs this class; the operative/inoperative partition is local,
dynamic, and downward monotone.  Inoperative processes still *relay* inside
their group's aggregation (they serve as transmitters), which is what keeps
the Lemma-7 quorum argument valid for non-faulty processes that merely lost
spreading-graph connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Callable, Sequence
from typing import Any

from ..baselines.dolev_strong import dolev_strong_consensus
from ..graphs import SpreadingGraph, spreading_graph
from ..params import ProtocolParams
from ..runtime import (
    ExecutionResult,
    Message,
    ProcessEnv,
    Program,
    SyncProcess,
    idle_rounds,
    tagged,
)
from .aggregation import group_bits_aggregation
from .partition import (
    GroupPartition,
    cached_bag_tree,
    cached_sqrt_partition,
    global_stage_count,
)
from .spreading import SpreadingState, group_bits_spreading
from .voting import apply_vote_rule

TAG_DECISION = 6


@lru_cache(maxsize=256)
def shared_spreading_graph(n: int, delta: int, seed: int) -> SpreadingGraph:
    """The predetermined graph all processes derive locally (Theorem 4).

    Cached so that building an n-process system costs one construction, not
    n — the processes "compute the same graph" for free, as in the paper.
    """
    return spreading_graph(n, delta, seed)


def epoch_rounds(m: int, params: ProtocolParams) -> int:
    """Rounds per epoch for an m-member run: 3 per tree stage + spreading."""
    partition = cached_sqrt_partition(m)
    return 3 * global_stage_count(partition) + params.spread_rounds(m)


def core_total_rounds(
    m: int, params: ProtocolParams, num_epochs: int | None = None
) -> int:
    """Rounds consumed by :func:`optimal_epochs_and_dissemination` on m
    members: all epochs plus the one line-14 dissemination round.

    Every process can compute this locally, which is how Algorithm 4's
    non-members know how long to stay idle during another super-process's
    phase.
    """
    if m == 1:
        return 1
    if num_epochs is None:
        num_epochs = params.num_epochs(m, params.max_faults(m))
    return num_epochs * epoch_rounds(m, params) + 1


@dataclass
class CoreState:
    """Mutable per-process state of lines 5-16, exposed to the adversary.

    ``b`` is the candidate bit, ``operative``/``decided`` the Algorithm-1
    flags, ``epoch`` the index of the epoch currently executing (equal to the
    epoch budget once the loop has finished).
    """

    b: int
    operative: bool = True
    decided: bool = False
    epoch: int = -1


def _decision_from(inbox: list[Message]) -> int | None:
    """Extract the first decision bit from line-14-style broadcasts."""
    return next((bit for _, bit in tagged(inbox, TAG_DECISION, 2)), None)


def epoch_program(
    env: ProcessEnv,
    members: tuple[int, ...],
    params: ProtocolParams,
    state: CoreState,
    graph_seed: int = 0,
) -> Callable[[], Program]:
    """One epoch of Algorithm 1 (lines 6-12) among ``members``, as a program
    to run once per epoch: aggregation, then idling or spreading, then the
    vote rule, on ``state``.

    The group, bag tree and spreading-graph links are derived here, once;
    the returned program keeps the links' disregarded set across epochs.
    """
    m = len(members)
    my_local = members.index(env.pid)
    partition: GroupPartition = cached_sqrt_partition(m)
    my_group = partition.group_index_of(my_local)
    group = tuple(members[i] for i in partition.group_members(my_group))
    tree = cached_bag_tree(group)
    stage_budget = global_stage_count(partition)
    spread_rounds = params.spread_rounds(m)
    degree_threshold = params.operative_degree_threshold(m)

    graph = shared_spreading_graph(m, params.delta(m), graph_seed)
    spreading_state = SpreadingState(
        neighbors=tuple(sorted(members[v] for v in graph.neighbors(my_local)))
    )

    def epoch() -> Program:
        aggregation = yield from group_bits_aggregation(
            env, group, tree, state.operative, state.b, params, stage_budget
        )
        if state.operative and not aggregation.operative:
            state.operative = False
        if not state.operative:
            # Line 7: idle until the end of the epoch (the aggregation
            # above was pure relay duty).
            yield from idle_rounds(env, spread_rounds)
            return

        spread = yield from group_bits_spreading(
            env,
            spreading_state,
            partition.group_count,
            my_group,
            (aggregation.ones, aggregation.zeros),
            spread_rounds,
            degree_threshold,
        )
        if not spread.operative:
            state.operative = False
            return

        outcome = apply_vote_rule(spread.ones, spread.zeros, params, env.random)
        state.b = outcome.bit
        if outcome.decided:
            state.decided = True

    return epoch


def disseminate(env: ProcessEnv, members: tuple[int, ...], state: Any) -> Program:
    """Lines 14-16 among ``members``: one round in which decided operative
    processes send their bit and everyone else adopts a received one.

    ``state`` is any holder of ``b`` / ``operative`` / ``decided``.  Returns
    the decision value, or ``None`` when this process neither set ``decided``
    nor (being inoperative) received a decision broadcast.
    """
    if state.operative and state.decided:
        env.send_many(
            (pid for pid in members if pid != env.pid),
            (TAG_DECISION, state.b),
        )
    inbox = yield
    received = _decision_from(inbox)
    if received is not None and not (state.operative and state.decided):
        state.b = received  # line 15
    if state.decided or (not state.operative and received is not None):
        return state.b  # line 16
    return None


def deterministic_fallback(
    env: ProcessEnv, t: int, state: Any, wait_rounds: int
) -> Program:
    """Lines 17-20, system-wide: undecided operative processes run
    Dolev-Strong on their bits and broadcast its outcome; an inoperative,
    undecided process waits for a decision (line 19).

    Non-faulty processes are guaranteed one (Lemma 11); a fully eclipsed
    *faulty* process may starve, so the wait is bounded by ``wait_rounds`` —
    at least the fallback's length plus the final broadcast.
    """
    if state.operative:
        decision = yield from dolev_strong_consensus(
            env, t, state.b, participating=True
        )
        state.b = decision
        env.broadcast((TAG_DECISION, decision))
        env.decide(decision)
        return
    for _ in range(wait_rounds):
        inbox = yield
        received = _decision_from(inbox)
        if received is not None:
            state.b = received
            env.decide(received)
            return


def optimal_epochs_and_dissemination(
    env: ProcessEnv,
    members: tuple[int, ...],
    params: ProtocolParams,
    state: CoreState,
    graph_seed: int = 0,
    num_epochs: int | None = None,
) -> Program:
    """Lines 5-16 of Algorithm 1 among ``members`` (sorted global pids).

    Returns the decision value, or ``None`` — the "⊥" outcome Algorithm 4
    expects from a truncated run.  Always consumes exactly
    ``core_total_rounds(len(members), params, num_epochs)`` rounds.
    """
    m = len(members)
    if m == 1:
        # A singleton run decides its own bit; one round for symmetry with
        # the dissemination round of larger runs.
        state.decided = True
        yield
        return state.b

    if num_epochs is None:
        num_epochs = params.num_epochs(m, params.max_faults(m))

    epoch = epoch_program(env, members, params, state, graph_seed)
    for index in range(num_epochs):
        state.epoch = index
        yield from epoch()
    state.epoch = num_epochs
    return (yield from disseminate(env, members, state))


class OptimalOmissionsConsensus(SyncProcess):
    """One process of Algorithm 1.

    Public attributes (all visible to the full-information adversary):

    * ``b`` — current candidate bit;
    * ``operative`` — local operative status (dynamic, downward monotone);
    * ``decided`` — the line-12 safety flag;
    * ``epoch`` — index of the epoch currently executing.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        input_bit: int,
        t: int | None = None,
        params: ProtocolParams | None = None,
        graph_seed: int = 0,
        num_epochs: int | None = None,
    ) -> None:
        super().__init__(pid, n)
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit!r}")
        self.params = params if params is not None else ProtocolParams.practical()
        self.t = t if t is not None else self.params.max_faults(n)
        self.params.validate_fault_budget(n, self.t)
        self.input_bit = input_bit
        self.state = CoreState(b=input_bit)
        self.graph_seed = graph_seed
        self.num_epochs = (
            num_epochs
            if num_epochs is not None
            else self.params.num_epochs(n, self.t)
        )
        self.used_fallback = False

    # Adversary-facing views of the core state -------------------------
    @property
    def b(self) -> int:
        return self.state.b

    @property
    def operative(self) -> bool:
        return self.state.operative

    @property
    def decided(self) -> bool:
        return self.state.decided

    @property
    def epoch(self) -> int:
        return self.state.epoch

    def epoch_rounds(self) -> int:
        """Rounds per epoch of this configuration."""
        return epoch_rounds(self.n, self.params)

    def program(self, env: ProcessEnv) -> Program:
        members = tuple(range(self.n))
        value = yield from optimal_epochs_and_dissemination(
            env,
            members,
            self.params,
            self.state,
            graph_seed=self.graph_seed,
            num_epochs=self.num_epochs,
        )
        if value is not None:
            env.decide(value)
            return None
        self.used_fallback = True
        yield from deterministic_fallback(env, self.t, self.state, self.t + 3)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OptimalOmissionsConsensus(pid={self.pid}, b={self.b}, "
            f"operative={self.operative}, decided={self.decided}, "
            f"epoch={self.epoch})"
        )


@dataclass
class ConsensusRun:
    """A finished consensus execution plus convenience accessors.

    The historical ``(result, processes)`` tuple protocol was removed
    after its documented deprecation window (docs/api.md); use the named
    ``result`` / ``processes`` fields and the richer accessors below.
    """

    result: ExecutionResult
    processes: list[SyncProcess]
    #: The :class:`repro.harness.ExecutionConfig` this run was produced
    #: from (None for runs constructed outside the harness).
    request: Any = None

    @property
    def decision(self) -> Any:
        return self.result.agreement_value()

    @property
    def metrics(self):
        return self.result.metrics

    @property
    def ran_deterministic_fallback(self) -> bool:
        """True when operative processes actually executed the Dolev-Strong
        fallback — the polynomially-unlikely slow branch of Theorem 5."""
        return any(
            getattr(process, "used_fallback", False)
            and getattr(process, "operative", False)
            for process in self.processes
        )


def build_processes(
    inputs: Sequence[int],
    t: int | None = None,
    params: ProtocolParams | None = None,
    graph_seed: int = 0,
    num_epochs: int | None = None,
) -> list[OptimalOmissionsConsensus]:
    """Construct the n process objects of Algorithm 1 for the given inputs."""
    n = len(inputs)
    params = params if params is not None else ProtocolParams.practical()
    t = t if t is not None else params.max_faults(n)
    return [
        OptimalOmissionsConsensus(
            pid,
            n,
            inputs[pid],
            t=t,
            params=params,
            graph_seed=graph_seed,
            num_epochs=num_epochs,
        )
        for pid in range(n)
    ]
