"""The round-model interface: the scheduler layer of the engine.

A :class:`RoundModel` owns the *timing* of an execution — when processes
advance, when the adversary acts, and when surviving traffic reaches
inboxes — while delegating process advancement to the
:class:`~repro.runtime.engine.ExecutionCore` and inbox placement to the
network's :class:`~repro.runtime.delivery.Delivery`.  Everything
the adversary API, the observer bus, and the metering contract promise is
model-independent: the one round loop, :meth:`RoundModel.run_rounds`,
drives the same fixed hook sequence (``on_round_start`` →
``on_messages_sent`` → ``on_adversary_action`` → ``on_deliveries`` →
``on_round_end``) through the network's dispatch helpers every round,
and a model only says what it resets (:meth:`RoundModel.begin`) and when
a round's surviving copies arrive (:meth:`RoundModel.deliver`).
"""

from __future__ import annotations

from typing import Any

from ..messages import MessageBatch
from ..network import LockstepError, SyncNetwork


class RoundModel:
    """One timing discipline for driving rounds (see the module docstring).

    The round loop is :meth:`run_rounds`, written once; a model supplies
    :meth:`begin` and :meth:`deliver`.  A model instance belongs to
    exactly one :class:`SyncNetwork` run at a time.
    """

    #: Registry key; also serialized into execution recipes.
    name = "abstract"

    def begin(self, network: SyncNetwork) -> None:
        """Reset per-run state (clocks, in-flight queues) before round 0."""

    def deliver(
        self, network: SyncNetwork, batch: MessageBatch, omitted: tuple[int, ...]
    ) -> None:
        """One receive step: place the round's surviving copies in inboxes
        and dispatch ``on_deliveries``.  The default delivers everything
        now, so nothing is ever in flight."""
        network._deliver(batch, omitted)

    def run_rounds(self, network: SyncNetwork) -> None:
        """Drive rounds until the run's termination condition holds.

        The network has already dispatched ``on_run_start`` and set up the
        adversary; the loop leaves the network in its terminal state
        (``live_count == 0`` and no undelivered traffic) or raises
        :class:`~repro.runtime.network.LockstepError` on ``max_rounds``.
        """
        observers = network.observers
        core = network.core
        self.begin(network)
        while core.live_count > 0 or self.in_flight_count:
            network.maybe_reseed()
            if network.round >= network.max_rounds:
                raise LockstepError(
                    f"protocol did not terminate within {network.max_rounds} "
                    f"rounds; {core.live_count} processes still live"
                )
            for observer in observers:
                observer.on_round_start(network.round, network)
            outbound = core.advance(network.round)
            if core.live_count == 0 and not outbound and not self.in_flight_count:
                # A terminal local-computation phase with no traffic (and
                # nothing in flight) is not a round: observers see the
                # unmatched on_round_start.
                break
            for observer in observers:
                observer.on_messages_sent(network.round, outbound, network)
            omitted = network._apply_adversary(outbound)
            self.deliver(network, outbound, omitted)
            network._dispatch_round_end()
            network.round += 1

    @property
    def in_flight_count(self) -> int:
        """Messages sent but not yet delivered, omitted, or lost.

        Non-zero only for models with cross-round message latency; the
        conservation invariant generalizes to
        ``sent == delivered + omitted + lost + in_flight``.
        """
        return 0

    def options_payload(self) -> dict[str, Any]:
        """JSON-safe constructor options, for recipe serialization.

        Must round-trip: ``create_model(self.name, **payload)`` builds an
        equivalent model.
        """
        return {}
