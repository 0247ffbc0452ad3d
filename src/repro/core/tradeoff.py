"""``ParamOmissions`` — Algorithm 4 / Theorems 3 and 8 (time ↔ randomness).

The trade-off algorithm: split ``P`` into ``x`` super-processes of size
``ceil(n/x)``; in round-robin phases each super-process runs the *truncated*
``OptimalOmissionsConsensus`` (lines 5-16 only — the sub-protocol
:func:`repro.core.consensus.optimal_epochs_and_dissemination`) on its own
members, then floods the phase's outcome (if any) along the global spreading
graph for ``2 log n`` rounds (``(TAG_FLOOD, v)``, read with ``tagged_from``
off the tally's columns).  Every subsequent phase uses the propagated
value as its input bit.  A final 2-round safety rule (lines 15-23) counts
bits among operative processes; near-unanimous counts decide, anything else
drops to the deterministic fallback (lines 24-30), giving correctness with
probability 1.

Randomness accounting (Theorem 8): each phase's sub-run spends
``~ (n/x)^{3/2}`` random bits, so x phases spend ``~ n^2 / sqrt(nx)`` while
time grows to ``~ sqrt(nx)`` — the ``T x R ≈ n^2`` trade-off curve the
benchmarks sweep.

Once a process turns inoperative it idles until the final decision
broadcasts (pseudocode line 10: "stay idle until line 25") — in particular a
stale candidate bit can never re-enter a later phase, which is what keeps
one value in the system after the first reliable super-process's phase.
"""

from __future__ import annotations

import math

from ..params import ProtocolParams, log2ceil
from ..runtime import (
    ProcessEnv,
    Program,
    SyncProcess,
    idle_rounds,
    inbox_payloads,
    inbox_senders,
    payload_bits,
    tagged,
    tagged_from,
)
from .consensus import (
    CoreState,
    core_total_rounds,
    deterministic_fallback,
    disseminate,
    optimal_epochs_and_dissemination,
    shared_spreading_graph,
)
from .spreading import SpreadingState

TAG_FLOOD = 11
TAG_SAFETY = 12

#: One shared, presized flood payload per in-model value.
_FLOODS = {
    value: ((TAG_FLOOD, value), payload_bits((TAG_FLOOD, value)))
    for value in (None, 0, 1)
}


def super_partition(n: int, x: int) -> tuple[tuple[int, ...], ...]:
    """Split ``range(n)`` into x contiguous super-processes of size
    ``ceil(n/x)`` (the last may be smaller)."""
    if not 1 <= x <= n:
        raise ValueError(f"need 1 <= x <= n, got x={x}, n={n}")
    size = math.ceil(n / x)
    groups = []
    start = 0
    while start < n:
        groups.append(tuple(range(start, min(n, start + size))))
        start += size
    return tuple(groups)


def flood_rounds(n: int, params: ProtocolParams) -> int:
    """Rounds of per-phase decision flooding (paper: ``2 log n``)."""
    return max(3, 2 * log2ceil(max(2, n)))


def _flood_decision(
    env: ProcessEnv,
    state: SpreadingState,
    value: int | None,
    rounds: int,
    degree_threshold: int,
) -> Program:
    """Flood a phase's consensus value along the global graph.

    Operative processes send their current value (possibly none) to all
    not-yet-disregarded neighbours each round, adopt the first value they
    hear, disregard silent links forever, and go inoperative below the
    ``Delta/3`` per-round threshold.  Returns ``(value, operative)``.
    """
    operative = True
    for _ in range(rounds):
        if operative:
            live, live_set = state.live_neighbors(), state.live_set()
            flood = _FLOODS.get(value) if value is None or type(value) is int else None
            if flood is None:  # its own tuple: a ``bool`` sizes a bit under 1
                flood = ((TAG_FLOOD, value), None)
            env.send_many(live, *flood)
            inbox = yield
            senders, payloads = inbox_senders(inbox), inbox_payloads(inbox)
            if payloads.count(flood[0]) == len(payloads):
                # Every copy repeats this process's value: nothing to adopt.
                heard = live_set.intersection(senders)
            else:
                heard = set()
                for sender, (_, flooded) in tagged_from(senders, payloads, TAG_FLOOD, 2):
                    # Undirected graph: a live sender is a neighbour whose
                    # link was not disregarded.
                    if sender not in live_set:
                        continue
                    heard.add(sender)
                    if value is None and flooded is not None:
                        value = flooded
            if len(heard) != len(live):
                state.disregarded.update(v for v in live if v not in heard)
            if len(heard) < degree_threshold:
                operative = False
        else:
            yield
    return value, operative


class ParamOmissions(SyncProcess):
    """One process of Algorithm 4, parameterized by the super-process count.

    Public attributes visible to the adversary: ``b``, ``operative``,
    ``decided``, ``phase`` (current round-robin phase, = x when finished).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        input_bit: int,
        x: int,
        t: int | None = None,
        params: ProtocolParams | None = None,
        graph_seed: int = 0,
    ) -> None:
        super().__init__(pid, n)
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit!r}")
        self.params = params if params is not None else ProtocolParams.practical()
        # Theorem 8 halves Algorithm 1's fault tolerance (t < n/60).
        self.t = (
            t if t is not None else max(0, (n - 1) // (2 * (self.params.fault_fraction_denominator + 1)))
        )
        self.input_bit = input_bit
        self.x = x
        self.b = input_bit
        self.operative = True
        self.decided = False
        self.phase = -1
        self.graph_seed = graph_seed
        self.supers = super_partition(n, x)
        self.used_fallback = False

    def program(self, env: ProcessEnv) -> Program:
        n, params = self.n, self.params
        graph = shared_spreading_graph(n, params.delta(n), self.graph_seed)
        flood_state = SpreadingState(
            neighbors=tuple(sorted(graph.neighbors(self.pid)))
        )
        degree_threshold = params.operative_degree_threshold(n)
        flooding = flood_rounds(n, params)

        # ---- Round-robin phases (lines 4-14). ----------------------------
        for phase, members in enumerate(self.supers):
            self.phase = phase
            sub_rounds = core_total_rounds(len(members), params)
            if self.pid in members and self.operative:
                sub_state = CoreState(b=self.b)
                decision = yield from optimal_epochs_and_dissemination(
                    env,
                    members,
                    params,
                    sub_state,
                    graph_seed=self.graph_seed + 1 + phase,
                )
            else:
                # Other super-processes (and inoperative members) stay idle
                # for the sub-run's fixed length (line 6 / line 10).
                yield from idle_rounds(env, sub_rounds)
                decision = None

            # Lines 7-8: members carry the sub-run outcome, others bottom.
            consensus_decision = decision

            # Lines 9-12: flooding along the global graph.
            if self.operative:
                consensus_decision, operative = yield from _flood_decision(
                    env, flood_state, consensus_decision, flooding,
                    degree_threshold,
                )
                self.operative = operative
            else:
                yield from idle_rounds(env, flooding)

            # Line 13: the propagated value becomes the next input bit.
            if self.operative and consensus_decision is not None:
                self.b = consensus_decision

        self.phase = self.x

        # ---- Safety rule (lines 15-23): one exchange among operative. ----
        if self.operative:
            env.broadcast((TAG_SAFETY, self.b))
        inbox = yield
        if self.operative:
            # Received safety bits (any but 1 counts as a zero), plus its own.
            bits = [bit for _, bit in tagged(inbox, TAG_SAFETY, 2)]
            ones, total = bits.count(1) + self.b, len(bits) + 1
            if params.adopt_one(ones, total):
                self.b = 1
            elif params.adopt_zero(ones, total):
                self.b = 0
            if params.ready_to_decide(ones, total):
                self.decided = True

        # ---- Lines 24-30: Algorithm 1's lines 14-20 among everyone, on
        # this process's own b / operative / decided. ------------------------
        value = yield from disseminate(env, tuple(range(n)), self)
        if value is not None:
            env.decide(value)
            return None
        self.used_fallback = True
        yield from deterministic_fallback(env, self.t, self, self.t + 3)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParamOmissions(pid={self.pid}, x={self.x}, b={self.b}, "
            f"operative={self.operative}, phase={self.phase})"
        )
