"""The lockstep synchronous round model — the paper's Section 2 semantics.

Every round is two phases: a local-computation phase (every live process
generator resumed with last round's post-omission inbox) and a
communication phase (the adversary observes everything and acts, then the
surviving messages are delivered, to be consumed next round).  Messages
never cross round boundaries, so :attr:`RoundModel.in_flight_count` is
always zero and the metering identity holds per round without an
in-flight term.

This model is the byte-identical successor of the historical
``SyncNetwork.run`` loop: golden recipes in ``tests/data/`` and the
object-vs-columnar differential suite in ``tests/test_columnar.py``
certify that decisions, inbox orders, and every :class:`Metrics` counter
are unchanged by the scheduler/delivery/execution layering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..network import LockstepError
from .base import RoundModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..network import SyncNetwork


class LockstepModel(RoundModel):
    """Classic synchronous rounds: all traffic arrives next round."""

    name = "lockstep"

    def run_rounds(self, network: SyncNetwork) -> None:
        observers = network.observers
        core = network.core
        while core.live_count > 0:
            network.maybe_reseed()
            if network.round >= network.max_rounds:
                raise LockstepError(
                    f"protocol did not terminate within {network.max_rounds} "
                    f"rounds; {core.live_count} processes still live"
                )
            for observer in observers:
                observer.on_round_start(network.round, network)
            outbound = core.advance(network.round)
            if core.live_count == 0 and not outbound:
                # A terminal local-computation phase with no traffic is not
                # a round: observers see the unmatched on_round_start.
                break
            for observer in observers:
                observer.on_messages_sent(network.round, outbound, network)
            omitted = network._apply_adversary(outbound)
            network._deliver(outbound, omitted)
            network._dispatch_round_end()
            network.round += 1
