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

The engine's own accounting rides the same bus: a :class:`MetricsObserver`
is installed first on every network, so the per-round :class:`Metrics`
series is just another observer's output.  :class:`TraceRecorder`
(``repro.runtime.trace``) and :class:`RoundProfiler` are the other two
built-in observers.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .messages import Message, MessageBatch
from .metrics import Metrics

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


class MetricsObserver(RoundObserver):
    """The engine's own accounting, expressed as an observer.

    Installed first on every :class:`SyncNetwork`, so user observers may
    read up-to-date per-round series (e.g. ``metrics.messages_per_round``)
    from their ``on_round_end`` hooks.
    """

    def __init__(self, metrics: Metrics) -> None:
        self.metrics = metrics

    def on_messages_sent(
        self, round_no: int, outbound: Sequence[Message], network: SyncNetwork
    ) -> None:
        # A MessageBatch answers the bit total from its records (one term
        # per multicast) instead of materializing every per-copy view.
        if isinstance(outbound, MessageBatch):
            bits = outbound.total_bits()
        else:
            bits = sum(message.bits for message in outbound)
        self.metrics.record_round(len(outbound), bits)

    def on_adversary_action(
        self,
        round_no: int,
        view: NetworkView,
        action: AdversaryAction,
        network: SyncNetwork,
    ) -> None:
        self.metrics.record_omissions(len(action.omit))

    def on_deliveries(
        self,
        round_no: int,
        delivered: Sequence[Message],
        lost: Sequence[Message],
        network: SyncNetwork,
    ) -> None:
        # The engine accumulates delivery bit totals while it expands the
        # batch; fall back to summing for hand-driven dispatch.
        delivered_bits = getattr(network, "_delivered_bits", None)
        if delivered_bits is None:
            delivered_bits = sum(message.bits for message in delivered)
        self.metrics.record_delivery(len(delivered), delivered_bits)
        if lost:
            lost_bits = getattr(network, "_lost_bits", None)
            if lost_bits is None:
                lost_bits = sum(message.bits for message in lost)
            self.metrics.record_lost(len(lost), lost_bits)


class RoundProfiler(RoundObserver):
    """Wall-time profile of the engine's three per-round phases.

    Accumulates ``perf_counter`` seconds per *compute* (local-computation),
    *adversary* (view construction + strategy + validation) and *delivery*
    (inbox placement) phase, plus the observer/bookkeeping remainder of
    each round.

    Purely passive: attaching it never perturbs metrics, decisions, or
    randomness.
    """

    def __init__(self) -> None:
        self.compute = 0.0
        self.adversary = 0.0
        self.delivery = 0.0
        self.overhead = 0.0
        self.rounds = 0
        self.wall_time = 0.0
        self._run_started = 0.0
        self._last_mark = 0.0

    # ------------------------------------------------------------------
    def on_run_start(self, network: SyncNetwork) -> None:
        self._run_started = time.perf_counter()

    def on_round_start(self, round_no: int, network: SyncNetwork) -> None:
        self._last_mark = time.perf_counter()

    def _phase(self) -> float:
        now = time.perf_counter()
        elapsed = now - self._last_mark
        self._last_mark = now
        return elapsed

    def on_messages_sent(
        self, round_no: int, outbound: Sequence[Message], network: SyncNetwork
    ) -> None:
        self.compute += self._phase()

    def on_adversary_action(
        self,
        round_no: int,
        view: NetworkView,
        action: AdversaryAction,
        network: SyncNetwork,
    ) -> None:
        self.adversary += self._phase()

    def on_deliveries(
        self,
        round_no: int,
        delivered: Sequence[Message],
        lost: Sequence[Message],
        network: SyncNetwork,
    ) -> None:
        self.delivery += self._phase()

    def on_round_end(self, round_no: int, network: SyncNetwork) -> None:
        self.rounds += 1
        self.overhead += time.perf_counter() - self._last_mark

    def on_run_end(
        self, result: ExecutionResult, network: SyncNetwork
    ) -> None:
        self.wall_time = time.perf_counter() - self._run_started

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """JSON-friendly totals (seconds), e.g. for campaign records."""
        return {
            "rounds": self.rounds,
            "wall_time": self.wall_time,
            "compute": self.compute,
            "adversary": self.adversary,
            "delivery": self.delivery,
            "overhead": self.overhead,
        }
