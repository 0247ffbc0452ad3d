"""Terminating Reliable Broadcast (TRB) under omission faults, with early
stopping.

The related-work section cites Roşu [34] ("Early-stopping terminating
reliable broadcast protocol for general-omission failures"): a designated
sender broadcasts one value; every correct process must *deliver* the same
value — the sender's value if the sender is correct, possibly the default
``BOTTOM`` otherwise — and an early-stopping protocol terminates in
``O(min(f, t) + const)`` rounds where ``f`` is the number of *actual*
faults, not the budget.

Implementation: the single-source slice of the Dolev-Strong chain relay
(unforgeable under omissions — processes never lie) plus the classic
early-stopping rule:

* a process that has accepted the value relays it once (``(TAG_TRB, value,
  chain)``) and, from the next round on, broadcasts a ``(TAG_QUIET,)`` vote;
* a process that sees ``n - t`` QUIET votes in one round knows every
  correct process has accepted (any n-t set contains a correct witness,
  and a correct QUIET sender reaches everyone), so it delivers and stops
  one round later;
* with no failures this fires after ~3 rounds regardless of t; each actual
  fault can delay acceptance by at most one chain hop, recovering the
  ``min(f + O(1), t + 1)`` shape that the benchmarks measure.

Against a *correct* sender the value also satisfies integrity trivially;
against a faulty sender all correct processes converge on the value or on
``BOTTOM`` together at the ``t + 1`` horizon.
"""

from __future__ import annotations

from ..runtime import (
    ProcessEnv,
    Program,
    SyncProcess,
    inbox_payloads,
    inbox_senders,
    tagged_from,
)

TAG_TRB = 19
TAG_QUIET = 20

#: The default "sender was faulty" delivery.
BOTTOM = "BOTTOM"


class TRBProcess(SyncProcess):
    """One process of early-stopping terminating reliable broadcast.

    Public state: ``accepted`` (the value once accepted), ``delivered``
    (the final delivery), ``delivery_round`` (when it stopped).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        sender: int,
        t: int,
        value: int | None = None,
    ) -> None:
        super().__init__(pid, n)
        if not 0 <= sender < n:
            raise ValueError(f"sender {sender} out of range for n={n}")
        if not 0 <= t < n:
            raise ValueError(f"fault budget t={t} must satisfy 0 <= t < n")
        if pid == sender and value is None:
            raise ValueError("the sender needs a value to broadcast")
        self.sender = sender
        self.t = t
        self.value = value
        self.accepted: int | None = value if pid == sender else None
        self.delivered: object = None
        self.delivery_round: int | None = None

    def program(self, env: ProcessEnv) -> Program:
        n, t = self.n, self.t
        horizon = t + 2
        pending_chain: tuple[int, ...] | None = None
        if self.pid == self.sender:
            pending_chain = (self.pid,)
        quiet_next = self.accepted is not None
        stop_after: int | None = None

        for round_index in range(1, horizon + 2):
            if stop_after is not None and round_index > stop_after:
                break
            # ---- Send phase. ----------------------------------------------
            if pending_chain is not None:
                env.broadcast((TAG_TRB, self.accepted, pending_chain))
                pending_chain = None
                quiet_next = True
            elif quiet_next:
                env.broadcast((TAG_QUIET,))

            inbox = yield

            # ---- Accept via valid chains (Dolev-Strong discipline). -------
            senders, payloads = inbox_senders(inbox), inbox_payloads(inbox)
            quiet_votes = (1 if quiet_next else 0) + len(tagged_from(senders, payloads, TAG_QUIET))
            for sender, (_, value, chain) in tagged_from(senders, payloads, TAG_TRB, 3):
                if self.accepted is not None:
                    continue
                if (
                    isinstance(chain, tuple)
                    and len(chain) == round_index
                    and len(set(chain)) == len(chain)
                    and chain[0] == self.sender
                    and chain[-1] == sender
                    and self.pid not in chain
                ):
                    self.accepted = value
                    if round_index < horizon:
                        pending_chain = chain + (self.pid,)
                    else:
                        quiet_next = True

            # ---- Early stopping: a QUIET quorum ends the protocol. --------
            if stop_after is None and quiet_votes >= n - t:
                # One final QUIET round lets slower processes see the
                # quorum too, then everyone may stop.
                stop_after = round_index + 1

        self.delivered = self.accepted if self.accepted is not None else BOTTOM
        env.decide(self.delivered)
        self.delivery_round = env.round
        return None
