"""Early-stopping variant of Algorithm 1 (a Section-6 future-work item).

Algorithm 1 always runs its full ``Theta(t/sqrt(n) log n)`` epoch budget —
even when the very first epoch already unified the candidate bits (e.g. on
unanimous inputs, where the paper's validity argument shows no coin is ever
touched).  The omission literature the paper cites ([33], [34]) studies
*early-stopping* protocols whose running time adapts to the actual number
of failures; this module brings that idea to Algorithm 1:

After every epoch, one extra *poll* round is inserted: processes whose
safety flag (line 12) is set broadcast READY.  A process that receives
READY from **more than n/2 distinct processes** exits the epoch loop
immediately and proceeds to the dissemination round.

Why the majority rule keeps the protocol safe:

* **No premature exit.** READY senders are ``decided`` processes, so an
  exit implies more than n/2 processes passed the 27/30 safety threshold —
  by the Lemma-11 argument all operative processes then share one candidate
  bit, and that bit can never change again (unanimity is absorbing).
* **Desynchronization is harmless.** The adversary can deliver faulty
  READYs selectively, so *different* processes may exit in different
  epochs.  Stragglers keep running epochs among a shrinking population:
  either they keep their (already unified) bit — unanimous counts are
  absorbing — or they lose quorums and go inoperative; both paths end in
  the same decision value through lines 14-20.  Phase misalignment is
  tolerated because every sub-protocol dispatches on message tags and
  ignores foreign traffic.

The variant's win is measured by `experiments/E-ES.json`:
unanimous or skewed inputs finish after one epoch instead of the full
budget, and the saving shrinks as the adversary forces more epochs — the
"adapt to actual faults" behaviour early-stopping is about.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..params import ProtocolParams
from ..runtime import (
    Adversary,
    Message,
    ProcessEnv,
    Program,
    idle_rounds,
    inbox_payloads,
    inbox_senders,
)
from .consensus import (
    ConsensusRun,
    OptimalOmissionsConsensus,
    TAG_DECISION,
    deterministic_fallback,
    disseminate,
    epoch_program,
)

TAG_READY = 13


def _ready_count(inbox: list[Message]) -> int:
    """Distinct senders of a READY in the poll round's inbox."""
    return len(
        {
            sender
            for sender, payload in zip(inbox_senders(inbox), inbox_payloads(inbox))
            if isinstance(payload, tuple)
            and len(payload) == 1
            and payload[0] == TAG_READY
        }
    )


class EarlyStoppingConsensus(OptimalOmissionsConsensus):
    """Algorithm 1 with a per-epoch READY poll and majority early exit.

    Public state adds ``exited_epoch`` — the epoch after which this process
    left the loop (equal to the full budget when it never exited early).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.exited_epoch: int | None = None

    def epoch_rounds(self) -> int:
        """One poll round on top of the base epoch length."""
        return super().epoch_rounds() + 1

    def program(self, env: ProcessEnv) -> Program:
        n, state = self.n, self.state
        members = tuple(range(n))
        epoch = epoch_program(env, members, self.params, state, self.graph_seed)
        ready = 0
        for index in range(self.num_epochs):
            state.epoch = index
            yield from epoch()

            # ---- The poll round: READY broadcast + majority exit. --------
            if state.decided:
                env.broadcast((TAG_READY,))
            inbox = yield
            # Count distinct READY senders; the sender itself counts too.
            ready = _ready_count(inbox) + (1 if state.decided else 0)
            if 2 * ready > n:
                self.exited_epoch = index
                break

        early_exit = self.exited_epoch is not None
        if not early_exit:
            self.exited_epoch = self.num_epochs
        state.epoch = self.num_epochs

        value = yield from disseminate(env, members, state)
        if value is not None:
            env.decide(value)
            # Straggler safety net: selective READY delivery at faulty
            # senders can leave a non-faulty process behind in the epoch
            # loop.  Unless the poll proved n - t processes ready (then
            # every non-faulty process exited this same epoch), linger
            # silently and re-broadcast the decision exactly when the
            # full-budget schedule reaches its own dissemination round, so
            # any straggler's line-15 / wait-loop inbox catches it.
            if early_exit and ready < n - self.t:
                per_epoch = self.epoch_rounds()
                consumed = (self.exited_epoch + 1) * per_epoch + 1
                lag = self.num_epochs * per_epoch - consumed
                if lag >= 0:
                    yield from idle_rounds(env, lag)
                    env.broadcast((TAG_DECISION, value))
            return None

        # An early exiter can get here a whole epoch budget before the
        # stragglers disseminate or fall back, so line 19's wait covers it.
        self.used_fallback = True
        yield from deterministic_fallback(
            env,
            self.t,
            state,
            self.t + 3 + self.num_epochs * self.epoch_rounds(),
        )


def run_early_stopping_consensus(
    inputs: Sequence[int],
    t: int | None = None,
    adversary: Adversary | None = None,
    params: ProtocolParams | None = None,
    seed: int = 0,
    graph_seed: int = 0,
    num_epochs: int | None = None,
    max_rounds: int = 200_000,
    observers: Sequence = (),
) -> ConsensusRun:
    """Run the early-stopping variant end to end (API of
    :func:`repro.core.run_consensus`).  Thin wrapper over
    :func:`repro.harness.execute`."""
    from ..harness import execute

    return execute(
        "early-stopping",
        inputs,
        t=t,
        adversary=adversary,
        params=params,
        seed=seed,
        graph_seed=graph_seed,
        max_rounds=max_rounds,
        observers=observers,
        num_epochs=num_epochs,
    )
