"""The round-model interface: the scheduler layer of the engine.

A :class:`RoundModel` owns the *timing* of an execution — when processes
advance, when the adversary acts, and when surviving traffic reaches
inboxes — while delegating process advancement to the
:class:`~repro.runtime.engine.ExecutionCore` and inbox placement to the
network's :class:`~repro.runtime.delivery.Delivery`.  Everything
the adversary API, the observer bus, and the metering contract promise is
model-independent: a model drives the same fixed hook sequence
(``on_round_start`` → ``on_messages_sent`` → ``on_adversary_action`` →
``on_deliveries`` → ``on_round_end``) through the network's dispatch
helpers every round.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..network import SyncNetwork


class RoundModel(ABC):
    """One timing discipline for driving rounds (see the module docstring).

    A model instance belongs to exactly one :class:`SyncNetwork` run at a
    time; per-run state (clocks, in-flight queues) is reset at the top of
    :meth:`run_rounds`.
    """

    #: Registry key; also serialized into execution recipes.
    name = "abstract"

    @abstractmethod
    def run_rounds(self, network: SyncNetwork) -> None:
        """Drive rounds until the run's termination condition holds.

        The network has already dispatched ``on_run_start`` and set up the
        adversary; the model must leave the network in its terminal state
        (``live_count == 0`` and no undelivered traffic) or raise
        :class:`~repro.runtime.network.LockstepError` on ``max_rounds``.
        """

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
