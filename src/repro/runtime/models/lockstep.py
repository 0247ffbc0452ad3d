"""The lockstep synchronous round model — the paper's Section 2 semantics.

Every round is two phases: a local-computation phase (every live process
generator resumed with last round's post-omission inbox) and a
communication phase (the adversary observes everything and acts, then the
surviving messages are delivered, to be consumed next round).  Messages
never cross round boundaries, so :attr:`RoundModel.in_flight_count` is
always zero and the metering identity holds per round without an
in-flight term.

It is the base :class:`RoundModel` loop with the default hooks —
nothing to reset, everything delivered now — so the class is its
registry name.
"""

from __future__ import annotations

from .base import RoundModel


class LockstepModel(RoundModel):
    """Classic synchronous rounds: all traffic arrives next round."""

    name = "lockstep"
