"""Partial synchrony as a canonical-round reduction.

The classic partial-synchrony setting (Dwork–Lynch–Stockmeyer) gives every
message an unknown bounded delay and promises a Global Stabilization Time
(GST) after which the bound is the known minimum.  Simulating that
faithfully per-message would abandon the round structure the whole
engine, adversary API, and metering contract are built on — so this model
uses the standard *canonical round* reduction instead (Attiya–Welch,
Chapter 11): simulated time advances in integer units; each round's send
step happens at one instant; each surviving copy independently draws an
integer latency in ``[min_latency, max_latency]`` (after GST: exactly
``min_latency``, no draw); and the round's *receive step* collects every
copy that has arrived by the receive deadline.

Two regimes, selected by ``timeout``:

* ``timeout=None`` (default) — the receive step waits for the round's
  slowest copy.  Every message arrives in the round it was sent, so
  inboxes, decisions, and every :class:`Metrics` counter are
  **byte-identical to lockstep**; only the simulated clock
  (:attr:`time`, :attr:`round_durations`) reflects the latency draws.
  This is the conservative reduction: a synchronous protocol stays
  correct, and the whole lockstep test corpus doubles as a
  partial-synchrony corpus.
* ``timeout=k`` — the receive step closes ``k`` time units after the
  send step.  Copies whose latency exceeds the timeout stay *in flight*
  and join the receive step of the earliest later round whose deadline
  covers their arrival; recipients that terminated meanwhile turn them
  into losses.  The conservation identity generalizes to
  ``sent == delivered + omitted + lost + in_flight`` (what
  :class:`~repro.replay.invariants.InvariantObserver` checks via
  :attr:`SyncNetwork.in_flight_messages`).

Latency draws come from a dedicated :class:`CountingRandom` stream seeded
with ``stable_seed(seed, "partial-synchrony-latency")`` — *not* one of the
per-process sources — so process randomness totals, recorded recipes, and
replay fingerprints are unaffected by the model's own randomness.
Draws happen per surviving copy in ascending flat-index order, which makes
them independent of the delivery representation.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any

from ..messages import Message, MessageBatch
from ..randomness import CountingRandom, stable_seed
from .base import RoundModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from collections.abc import Sequence

    from ..network import SyncNetwork


class PartialSynchronyModel(RoundModel):
    """Canonical rounds over latency-bearing links with a GST.

    Parameters
    ----------
    min_latency:
        Fastest possible link, in simulated time units (>= 1).  Also the
        exact latency of every copy sent at or after ``gst``.
    max_latency:
        Slowest possible link before GST (>= ``min_latency``).
    gst:
        Global Stabilization Time, in simulated time units.  Copies sent
        at ``time >= gst`` take exactly ``min_latency`` (and draw no
        randomness); ``0`` means the network is timely from the start.
    timeout:
        Receive-deadline offset per round, or ``None`` to wait for the
        round's slowest copy (the lockstep-equivalent regime, default).
        Must be >= 1 when given; smaller timeouts defer more traffic.
    """

    name = "partial-synchrony"

    def __init__(
        self,
        min_latency: int = 1,
        max_latency: int = 3,
        gst: int = 0,
        timeout: int | None = None,
    ) -> None:
        if min_latency < 1:
            raise ValueError(
                f"min_latency={min_latency} must be a positive number of "
                "time units"
            )
        if max_latency < min_latency:
            raise ValueError(
                f"max_latency={max_latency} must be >= "
                f"min_latency={min_latency}"
            )
        if gst < 0:
            raise ValueError(f"gst={gst} must be >= 0")
        if timeout is not None and timeout < 1:
            raise ValueError(
                f"timeout={timeout} must be >= 1 (or None to wait for the "
                "slowest copy)"
            )
        self.min_latency = min_latency
        self.max_latency = max_latency
        self.gst = gst
        self.timeout = timeout
        #: Simulated clock, in time units; advances at each receive step.
        self.time = 0
        #: Per-round receive-step durations, in time units.
        self.round_durations: list[int] = []
        # (arrival_time, send_sequence, message) min-heap of copies that
        # missed their send round's receive deadline.
        self._pending: list[tuple[int, int, Message]] = []
        self._sequence = 0
        self._rng: CountingRandom | None = None

    # ------------------------------------------------------------------
    @property
    def in_flight_count(self) -> int:
        return len(self._pending)

    def options_payload(self) -> dict[str, Any]:
        return {
            "min_latency": self.min_latency,
            "max_latency": self.max_latency,
            "gst": self.gst,
            "timeout": self.timeout,
        }

    # ------------------------------------------------------------------
    def begin(self, network: SyncNetwork) -> None:
        self.time = 0
        self.round_durations = []
        self._pending = []
        self._sequence = 0
        self._rng = CountingRandom(
            stable_seed(network.seed, "partial-synchrony-latency")
        )

    # ------------------------------------------------------------------
    def _draw_latencies(
        self, batch: MessageBatch, omitted: Sequence[int]
    ) -> dict[int, int]:
        """Latency per surviving flat index, in ascending index order.

        Ascending flat order is the canonical draw order: it depends only
        on the batch's flat layout, never on how the delivery layer
        later walks it.
        """
        rng = self._rng
        assert rng is not None
        omitted_set = set(omitted)
        after_gst = self.time >= self.gst
        fixed = self.min_latency
        spread = self.max_latency - fixed + 1
        latencies: dict[int, int] = {}
        for index in range(len(batch)):
            if index in omitted_set:
                continue
            latencies[index] = (
                fixed
                if after_gst or spread == 1
                else fixed + rng.randrange(spread)
            )
        return latencies

    def deliver(
        self,
        network: SyncNetwork,
        batch: MessageBatch,
        omitted: tuple[int, ...],
    ) -> None:
        """One receive step: on-time copies now, late copies into flight."""
        send_time = self.time
        latencies = self._draw_latencies(batch, omitted)
        if self.timeout is None:
            # Wait out the slowest copy: everything sent this round (and
            # necessarily everything previously in flight) arrives before
            # the next local-computation phase — the lockstep-equivalent
            # receive step, delegated verbatim to the network's delivery
            # dispatch for byte-identical inboxes and counters.
            duration = max(latencies.values(), default=self.min_latency)
            network._deliver(batch, omitted)
            self.time = send_time + duration
            self.round_durations.append(duration)
            return

        deadline = send_time + self.timeout
        deferred = [
            index
            for index, latency in sorted(latencies.items())
            if send_time + latency > deadline
        ]
        # On-time copies go through the regular delivery layer; deferred
        # ones are excluded exactly like omissions (skipped, not counted)
        # and tracked in the in-flight heap instead.
        excluded = sorted(set(omitted).union(deferred))
        receipt = network._delivery.deliver(
            batch, excluded, network._inboxes, core_live := network.core.live_mask()
        )
        for index in deferred:
            heapq.heappush(
                self._pending,
                (send_time + latencies[index], self._sequence, batch[index]),
            )
            self._sequence += 1

        # Pop previously deferred copies whose arrival the deadline now
        # covers, in (arrival, send-order) order — the canonical receive
        # order for late traffic, appended after the round's own
        # deliveries.
        delivered = list(receipt.delivered)
        lost = list(receipt.lost)
        delivered_bits = receipt.delivered_bits
        lost_bits = receipt.lost_bits
        inboxes = network._inboxes
        while self._pending and self._pending[0][0] <= deadline:
            _, _, message = heapq.heappop(self._pending)
            recipient = message.recipient
            if core_live is not None and not core_live[recipient]:
                lost.append(message)
                lost_bits += message.bits
                continue
            box = inboxes[recipient]
            if not isinstance(box, list):
                # The columnar plan leaves lazy views in the slots; widen
                # to a plain list before appending late arrivals.
                box = list(box)
                inboxes[recipient] = box
            box.append(message)
            delivered.append(message)
            delivered_bits += message.bits

        network._delivered_bits = delivered_bits
        network._lost_bits = lost_bits
        for observer in network.observers:
            observer.on_deliveries(network.round, delivered, lost, network)
        self.time = deadline
        self.round_durations.append(self.timeout)
