"""The first-class round-observer bus driven natively by the engine.

:class:`SyncNetwork` dispatches a fixed sequence of hooks every round:

``on_run_start`` → [``on_round_start`` → ``on_messages_sent`` →
``on_adversary_action`` → ``on_deliveries`` → [``on_transport``] →
``on_round_end``]* → ``on_run_end``

``on_transport`` fires only on rounds where the execution's transport
(:mod:`repro.transport`) measured real network links — never for the
default in-process transport — with the round's :class:`LinkSample`
measurements.

Observers are passive: they see the same objects the engine works with
(the network, the :class:`NetworkView` handed to the adversary, the
validated :class:`AdversaryAction`, the delivered/lost message lists) but
must not mutate them.  Attaching an observer never changes an execution —
decisions, rounds, and every :class:`Metrics` counter stay byte-identical
to an unobserved run (asserted by ``tests/test_observers.py``).

The engine's own account of a run rides the same bus: one
:class:`~repro.runtime.report.RunReport` is installed first on every
network (``network.report``), so the :class:`Metrics` series, the
omission and corruption schedule and the phase timings are just the
first observer's output.  It is the only observer the engine installs;
everything else on the bus is the caller's.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from .network import AdversaryAction, ExecutionResult, NetworkView, SyncNetwork


@dataclass(frozen=True, slots=True)
class LinkSample:
    """One measured coordinator↔worker link exchange.

    Produced by transport-backed execution cores (:mod:`repro.transport`)
    and dispatched to observers through :meth:`RoundObserver.on_transport`.
    A sample with ``round == -1`` measures the connection handshake
    (``retries`` is then the worker's connect retry count); per-round
    samples measure one step round-trip.  ``ok=False`` marks the exchange
    that failed and crash-faulted the link's processes.
    """

    worker: int
    pids: tuple[int, ...]
    round: int
    latency_s: float
    bytes_sent: int
    bytes_received: int
    retries: int = 0
    ok: bool = True


class RoundObserver:
    """Base observer: every hook is a no-op; override what you need.

    Hook order within one round is fixed (see the module docstring).  The
    final local-computation phase in which the last processes return may
    end the run between ``on_round_start`` and ``on_messages_sent`` — an
    iteration that sent no messages is not a round, so observers must
    tolerate an unmatched ``on_round_start`` right before ``on_run_end``.
    """

    def on_run_start(self, network: SyncNetwork) -> None:
        """Called once, after the adversary's ``setup`` and before round 0."""

    def on_round_start(self, round_no: int, network: SyncNetwork) -> None:
        """Called before the round's local-computation phase."""

    def on_messages_sent(
        self, round_no: int, outbound: Sequence[Message], network: SyncNetwork
    ) -> None:
        """Called after local computation with the round's outbound traffic."""

    def on_adversary_action(
        self,
        round_no: int,
        view: NetworkView,
        action: AdversaryAction,
        network: SyncNetwork,
    ) -> None:
        """Called after the adversary acted and the engine validated the
        action (corruptions already applied to ``network.faulty``; the
        pre-action faulty set is ``view.faulty``)."""

    def on_deliveries(
        self,
        round_no: int,
        delivered: Sequence[Message],
        lost: Sequence[Message],
        network: SyncNetwork,
    ) -> None:
        """Called after surviving messages were placed in inboxes.

        ``delivered`` reached a live recipient; ``lost`` survived the
        adversary but its recipient had already terminated.
        """

    def on_transport(
        self,
        round_no: int,
        samples: Sequence[LinkSample],
        network: SyncNetwork,
    ) -> None:
        """Called before ``on_round_end`` on rounds where the transport
        measured real network links (:class:`LinkSample` round-trips);
        never fires for the default in-process transport."""

    def on_round_end(self, round_no: int, network: SyncNetwork) -> None:
        """Called at the very end of the round, before the counter advances."""

    def on_run_end(
        self, result: ExecutionResult, network: SyncNetwork
    ) -> None:
        """Called once with the finished :class:`ExecutionResult`."""
