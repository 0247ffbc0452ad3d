"""Multi-valued consensus on top of Algorithm 1 (bit-prefix agreement).

The paper solves binary consensus; real deployments (the ledgers and
replicated databases its introduction motivates) agree on *values*.  This
module provides the classical reduction, engineered for the omission model
and the repository's lockstep substrate:

1. **Value exchange** (1 round): everyone broadcasts its input; each
   process stores the set ``S`` of values seen (omission-faulty processes
   never lie, so everything in ``S`` is a genuine input).
2. **Bit loop** (``value_bits`` iterations, most significant first): run a
   *fixed-length* binary consensus (Algorithm 1's epochs + dissemination,
   followed by a structurally always-present Dolev-Strong phase, so every
   code path consumes identical rounds) on the current candidate's next
   bit; then one *witness round* — processes holding a value in ``S``
   matching the decided prefix broadcast it; everyone re-anchors its
   candidate to the smallest matching value.  Binary validity guarantees
   at least one non-faulty process always holds a witness.
3. **Decide** the assembled bit string.

Its messages ``(TAG_VALUE | TAG_WITNESS | TAG_BIN_DECISION, v)`` are read
with :func:`~repro.runtime.tagged`, beside Algorithm 1's and Dolev-Strong's.

Strong validity holds: the decided value is some process's actual input
(the last bit's validity pins the full string to an existing candidate).
"""

from __future__ import annotations

from ..baselines.dolev_strong import dolev_strong_consensus
from ..params import ProtocolParams
from ..runtime import (
    ProcessEnv,
    Program,
    SyncProcess,
    tagged,
)
from .consensus import CoreState, optimal_epochs_and_dissemination

TAG_VALUE = 16
TAG_BIN_DECISION = 17
TAG_WITNESS = 18


def _bit_of(value: int, index: int, width: int) -> int:
    """Bit ``index`` of ``value`` counting from the most significant of a
    ``width``-bit representation."""
    return (value >> (width - 1 - index)) & 1


def _matches_prefix(value: int, prefix_bits: list[int], width: int) -> bool:
    return all(
        _bit_of(value, index, width) == bit
        for index, bit in enumerate(prefix_bits)
    )


def fixed_length_binary_consensus(
    env: ProcessEnv,
    members: tuple[int, ...],
    params: ProtocolParams,
    t: int,
    input_bit: int,
    graph_seed: int,
) -> Program:
    """Binary consensus consuming the same number of rounds on every path.

    Algorithm 1's natural ending is ragged (fast-path deciders exit while
    fallback participants run Dolev-Strong), which cannot be nested inside
    a larger lockstep loop.  Here the Dolev-Strong phase is *structurally
    always present* — processes that already hold a decision simply do not
    participate — followed by one propagation round, so the total length is
    ``core_total_rounds + (t + 1) + 1`` for everyone.

    Returns the decision bit, or ``None`` for a process the adversary
    starved of every broadcast (necessarily faulty).
    """
    state = CoreState(b=input_bit)
    value = yield from optimal_epochs_and_dissemination(
        env, members, params, state, graph_seed=graph_seed
    )

    participating = value is None and state.operative
    ds_decision = yield from dolev_strong_consensus(
        env, t, state.b, participating=participating
    )
    final = value if value is not None else ds_decision

    # One propagation round so starved-but-reachable processes catch up.
    if final is not None:
        env.send_many(
            (pid for pid in members if pid != env.pid),
            (TAG_BIN_DECISION, final),
        )
    inbox = yield
    if final is None:
        final = next((bit for _, bit in tagged(inbox, TAG_BIN_DECISION, 2)), None)
    return final


class MultiValuedConsensus(SyncProcess):
    """Agree on a ``value_bits``-bit non-negative integer.

    Public state: ``candidate`` (current anchored value), ``seen`` (inputs
    observed in the exchange round), ``prefix`` (bits decided so far).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        input_value: int,
        value_bits: int,
        t: int | None = None,
        params: ProtocolParams | None = None,
        graph_seed: int = 0,
    ) -> None:
        super().__init__(pid, n)
        if value_bits < 1:
            raise ValueError(f"value_bits must be >= 1, got {value_bits}")
        if not 0 <= input_value < (1 << value_bits):
            raise ValueError(
                f"input {input_value} does not fit in {value_bits} bits"
            )
        self.params = params if params is not None else ProtocolParams.practical()
        self.t = t if t is not None else self.params.max_faults(n)
        self.params.validate_fault_budget(n, self.t)
        self.input_value = input_value
        self.value_bits = value_bits
        self.graph_seed = graph_seed
        self.candidate = input_value
        self.seen: set[int] = {input_value}
        self.prefix: list[int] = []

    def program(self, env: ProcessEnv) -> Program:
        members = tuple(range(self.n))
        width = self.value_bits

        # ---- Value exchange. ---------------------------------------------
        env.broadcast((TAG_VALUE, self.input_value))
        inbox = yield
        self.seen.update(value for _, value in tagged(inbox, TAG_VALUE, 2))

        # ---- Bit loop. -----------------------------------------------------
        for index in range(width):
            my_bit = _bit_of(self.candidate, index, width)
            decided_bit = yield from fixed_length_binary_consensus(
                env,
                members,
                self.params,
                self.t,
                my_bit,
                graph_seed=self.graph_seed + 101 * (index + 1),
            )
            if decided_bit is None:
                # Fully starved (faulty): track the majority assumption 0
                # so the remaining rounds stay lockstep; the final decision
                # of this process is not covered by agreement anyway.
                decided_bit = 0
            self.prefix.append(decided_bit)

            # ---- Witness round. ------------------------------------------
            matching = sorted(
                value
                for value in self.seen
                if _matches_prefix(value, self.prefix, width)
            )
            if matching:
                env.broadcast((TAG_WITNESS, matching[0]))
            inbox = yield
            self.seen.update(value for _, value in tagged(inbox, TAG_WITNESS, 2))
            matching = sorted(
                value
                for value in self.seen
                if _matches_prefix(value, self.prefix, width)
            )
            if matching:
                self.candidate = matching[0]
            # else: keep the stale candidate; the decided prefix is what
            # counts, and a matching witness reaches every non-faulty
            # process (binary validity guarantees a non-faulty holder).

        decided_value = 0
        for bit in self.prefix:
            decided_value = (decided_value << 1) | bit
        env.decide(decided_value)
        return None
