"""Process abstraction for synchronous protocols.

A protocol process is written as a Python *generator*: each ``yield``
terminates the current round's local-computation-plus-send phase and resumes
with the next round's inbox.  Multi-phase protocols compose naturally with
``yield from`` sub-protocols, and the engine keeps all processes in lockstep.

Typical structure::

    class MyProcess(SyncProcess):
        def program(self, env):
            env.send(0, "hello")
            inbox = yield                  # round boundary
            ...
            env.decide(value)
            # returning ends participation (the process terminates)

The inbox delivered at each ``yield`` is the sequence of :class:`Message`
objects that survived the adversary, sorted by sender for determinism.  It
may be a lazy view that materializes per-copy messages on first read;
treat it as an immutable ``Sequence[Message]``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Generator, Iterable, Sequence
from typing import Any

from .messages import (
    MESSAGE_OVERHEAD_BITS,
    Message,
    SendColumns,
    payload_bits,
)
from .randomness import CountingRandom

#: Type of a protocol program: yields None (round boundary), receives the
#: next round's inbox (a sender-sorted, read-only ``Sequence[Message]``),
#: returns when the process terminates.  Sub-protocols used via
#: ``yield from`` may return a value to their caller.
Program = Generator[None, Sequence[Message], Any]


class ProcessEnv:
    """Per-process handle to the synchronous network.

    Exposes the only operations the model allows: queueing messages for the
    current communication phase, drawing metered randomness, and recording a
    decision.
    """

    __slots__ = (
        "pid",
        "n",
        "random",
        "columns",
        "decision",
        "has_decided",
        "round",
        "decision_round",
        "_fanout_cache",
        "_checked",
    )

    def __init__(self, pid: int, n: int, random_source: CountingRandom) -> None:
        self.pid = pid
        self.n = n
        self.random = random_source
        #: The round's :data:`~repro.runtime.messages.SendColumns`, which
        #: the core hands every env of the round; a send appends to each.
        self.columns: SendColumns = ([], [], [], [])
        self.decision: Any = None
        self.has_decided = False
        #: Current round number (0-based), maintained by the engine.
        self.round = 0
        #: Round in which :meth:`decide` was first called (None = never).
        self.decision_round: int | None = None
        # The cached everyone-but-self tuple: per-round broadcasts neither
        # rebuild the O(n) fan-out nor change its identity.
        self._fanout_cache: tuple[int, ...] | None = None
        # The last fan-out tuple send_many validated: handed in again (the
        # same object), it is not walked again.
        self._checked: tuple[int, ...] = ()

    def send(self, recipient: int, payload: Any) -> None:
        """Queue a message for delivery at the end of this round."""
        if not 0 <= recipient < self.n:
            raise ValueError(
                f"recipient {recipient} out of range for n={self.n}"
            )
        self._queue((recipient,), payload)

    def send_many(
        self, recipients: Iterable[int], payload: Any, size: int | None = None
    ) -> None:
        """Queue the same payload to several recipients as one record.

        The payload is sized once, not once per recipient — identical bits
        on the wire, much cheaper to queue and meter for wide fan-outs.
        Recipient order is preserved: the copies occupy consecutive flat
        indices of the round's :class:`MessageBatch` in exactly this order.

        ``size``, when the caller already knows it, must be exactly
        ``payload_bits(payload)`` — the payload alone, *without*
        :data:`MESSAGE_OVERHEAD_BITS` (unlike ``Message(bits=)``); any
        other value is a metering bug, caught in-run by
        ``InvariantObserver``'s *sizing* check.
        """
        if recipients is not self._checked:
            fanout = recipients if type(recipients) is tuple else tuple(recipients)
            n = self.n
            for recipient in fanout:
                if not 0 <= recipient < n:
                    raise ValueError(
                        f"recipient {recipient} out of range for n={n}"
                    )
            self._checked = fanout
        if self._checked:
            self._queue(self._checked, payload, size)

    def _queue(
        self, recipients: tuple[int, ...], payload: Any, size: int | None = None
    ) -> None:
        """Queue a validated, non-empty fan-out tuple.

        Callers guarantee every recipient is in range — :meth:`send_many`
        validates arbitrary input, :meth:`broadcast` reuses its cached
        (already validated) fan-out — so a per-round broadcast costs one
        ``payload_bits`` call and four appends, no O(n) re-checking.
        """
        senders, fanouts, payloads, bits = self.columns
        senders.append(self.pid)
        fanouts.append(recipients)
        payloads.append(payload)
        bits.append(
            (payload_bits(payload) if size is None else size) + MESSAGE_OVERHEAD_BITS
        )

    def broadcast(
        self,
        payload: Any,
        recipients: Iterable[int] | None = None,
    ) -> None:
        """Queue the payload to every process, or to ``recipients``.

        With the default ``recipients=None`` the fan-out is all n processes
        except the sender; the fan-out tuple is cached per process, so a
        per-round broadcast queues one record.  Passing ``recipients=`` is
        the keyword-friendly spelling of :meth:`send_many`.
        """
        if recipients is None:
            fanout = self._fanout_cache
            if fanout is None:
                fanout = tuple(range(self.pid)) + tuple(range(self.pid + 1, self.n))
                self._fanout_cache = fanout
            # The cached tuple was validated when built; skip straight
            # past send_many's per-recipient range loop.
            if fanout:
                self._queue(fanout, payload)
            return
        self.send_many(recipients, payload)

    def decide(self, value: Any) -> None:
        """Record this process's consensus output (idempotent re-decides
        with the same value are allowed; conflicting ones are bugs)."""
        if self.has_decided and self.decision != value:
            raise RuntimeError(
                f"process {self.pid} attempted to re-decide "
                f"{value!r} after deciding {self.decision!r}"
            )
        if not self.has_decided:
            self.decision_round = self.round
        self.decision = value
        self.has_decided = True


class SyncProcess(ABC):
    """Base class of all protocol processes.

    Subclasses hold their protocol state in public attributes — the adversary
    is *full-information* and is handed the process objects directly.
    """

    def __init__(self, pid: int, n: int) -> None:
        if not 0 <= pid < n:
            raise ValueError(f"pid {pid} out of range for n={n}")
        self.pid = pid
        self.n = n

    @abstractmethod
    def program(self, env: ProcessEnv) -> Program:
        """The process's protocol, as a round-per-yield generator."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(pid={self.pid}, n={self.n})"


def idle_rounds(env: ProcessEnv, rounds: int) -> Program:
    """Stay silent for exactly ``rounds`` rounds (used by inoperative
    processes so every code path consumes the same number of rounds)."""
    for _ in range(rounds):
        yield
    return None
