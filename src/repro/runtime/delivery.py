"""Delivery: the communication-phase layer of the engine.

The engine's round structure (who advances when, which inbox a message
lands in) is the round model's business (:mod:`repro.runtime.models`);
*how* a validated round of traffic is turned into inbox contents and
metering totals is this module's.  A network owns one :class:`Delivery`
(:meth:`~Delivery.validate_omissions`, :meth:`~Delivery.deliver`) with two
implementations behind it.  This module is the only place that chooses
between them — per batch, from what it can observe, never from an option:

* the *object loop* — the reference: one Python step per copy.  Works on
  any batch, including hand-built non-sender-sorted ones, and is the only
  path on a host without numpy.
* the *columnar plan* (:func:`repro.runtime.columnar.plan_delivery`) —
  omissions as keep masks, inbox assembly as a grouped scatter, lazy
  ``Message`` views.  Pays a per-record vectorization cost that only a
  wide fan-out amortizes, and assumes ascending-sender flat order.

One path serves a whole batch, so a round's inbox slots are all plain
lists or all lazy views.  Both paths implement the metering identity and
precedence pinned in :mod:`repro.runtime.metrics` — ``sent = delivered +
omitted + lost`` with *omitted beats lost* — and produce byte-identical
inboxes, orders, and counters (``tests/test_columnar.py``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Set
from typing import NamedTuple, cast

from .columnar import (
    HAVE_NUMPY,
    ColumnarBatch,
    FanoutCache,
    first_illegal_omission,
    plan_delivery,
)
from .messages import Message, MessageBatch, MessageRecord, Multicast

# Copies per record from which a batch takes the columnar plan.  Per-link
# rounds (mid-gossip spreading, narrow merged-count relays, ParamOmissions'
# small sub-committees) sit at 1-3; spreading's run multicasts sit near 32
# at n=256 and the two paths are within ~10% there; Ben-Or, Dolev-Strong
# and Algorithm 1's announce/fallback rounds sit at n-1 (always-object ran
# Ben-Or n=256 ~1.5x slower).  2, 4, 8 and 16 were indistinguishable within
# noise on all five shapes in docs/model.md, so this is not a tuning knob.
_COLUMNAR_MIN_FANOUT = 4


class DeliveryReceipt(NamedTuple):
    """What one delivery step accomplished, for metering and observers.

    ``delivered`` reached a live recipient's inbox; ``lost`` survived the
    adversary but its recipient had already terminated.  The bit totals
    are accumulated while the batch is expanded so the
    :class:`~repro.runtime.report.RunReport` does not need a second
    O(copies) pass.
    """

    delivered: Sequence[Message]
    lost: Sequence[Message]
    delivered_bits: int
    lost_bits: int


def _raise_illegal(total: int, index: int, sender: int, recipient: int,
                   out_of_range: bool) -> None:
    from .network import AdversaryProtocolError

    if out_of_range:
        raise AdversaryProtocolError(
            f"omit index {index} out of range "
            f"({total} messages this round)"
        )
    raise AdversaryProtocolError(
        "omissions are only allowed on messages to/from "
        f"faulty processes; message {sender}->{recipient} "
        "touches none"
    )


def _takes_columnar_plan(batch: MessageBatch) -> bool:
    """The per-batch rule.  Pure in the batch, so one round's readers —
    the adversary's view, validation, delivery — agree (and share its
    cached column vectors)."""
    return (
        HAVE_NUMPY
        and batch.sender_sorted
        and len(batch) >= _COLUMNAR_MIN_FANOUT * len(batch.records)
    )


class Delivery:
    """One network's communication phase (see the module docstring)."""

    __slots__ = ("_fanout_cache",)

    def __init__(self) -> None:
        # Fan-out tuples already converted to index arrays, shared across
        # rounds: ProcessEnv.broadcast caches its fan-out tuple per
        # process, so the same tuple objects recur every round.
        self._fanout_cache: FanoutCache = {}

    def columns(self, batch: MessageBatch) -> ColumnarBatch | None:
        """``batch`` as column vectors (built once, with this network's
        fan-out cache) if it takes the columnar plan, else ``None``."""
        if _takes_columnar_plan(batch):
            return batch.columns(self._fanout_cache)
        return None

    def validate_omissions(
        self, batch: MessageBatch, omit: Sequence[int], faulty: Set[int]
    ) -> None:
        """Raise :class:`AdversaryProtocolError` on an illegal schedule.

        ``omit`` is already canonical (sorted, de-duplicated); canonical
        order guarantees both paths name the *same* offending index.
        """
        total = len(batch)
        cols = self.columns(batch) if total else None
        if cols is not None:
            offender = first_illegal_omission(cols, omit, frozenset(faulty))
            if offender is not None:
                kind, index, sender, recipient = offender
                _raise_illegal(
                    total, index, sender, recipient,
                    out_of_range=kind == "range",
                )
            return
        for index in omit:
            if not 0 <= index < total:
                _raise_illegal(total, index, -1, -1, out_of_range=True)
            sender, recipient = batch.endpoints_at(index)
            if sender not in faulty and recipient not in faulty:
                _raise_illegal(
                    total, index, sender, recipient, out_of_range=False
                )

    def deliver(
        self,
        batch: MessageBatch,
        omitted: Sequence[int],
        inboxes: list[Sequence[Message]],
        live: Sequence[bool] | None,
    ) -> DeliveryReceipt:
        """Place surviving copies into ``inboxes``, in sender-sorted order.

        ``live[pid]`` is False for terminated recipients; ``None`` means
        every process is live (the common case, enabling fast paths).
        Every slot of ``inboxes`` must hold a plain list on entry (the
        execution core's advance resets them).
        """
        cols = self.columns(batch)
        if cols is None:
            return _deliver_objects(batch, omitted, inboxes, live)
        plan = plan_delivery(
            cols, omitted, None if live is None else list(live)
        )
        for recipient, view in plan.inboxes:
            inboxes[recipient] = view
        return DeliveryReceipt(
            plan.delivered, plan.lost, plan.delivered_bits, plan.lost_bits
        )


def _deliver_objects(
    batch: MessageBatch,
    omitted: Sequence[int],
    inboxes: list[Sequence[Message]],
    live: Sequence[bool] | None,
) -> DeliveryReceipt:
    """The reference object-per-copy delivery loop.

    Engine-built batches are already in ascending-sender order (the
    local-computation phase advances processes in pid order), so sender
    bucketing reduces to a straight scan; a stable record sort restores
    the invariant for hand-built outboxes.  This is the designated
    per-copy materialization point of the object path (listed in
    ``tests/test_removed_surfaces.py``): one ``Message`` per surviving copy.

    Metering precedence is the engine-wide rule pinned in
    :mod:`repro.runtime.metrics`: the omission check runs *before* the
    recipient-liveness check, so a copy that is both adversary-omitted
    and addressed to a terminated recipient counts as omitted, never as
    lost — ``sent = delivered + omitted + lost`` holds exactly, every
    round, on both paths.
    """
    omitted_set = set(omitted)
    delivered: list[Message] = []
    lost: list[Message] = []
    delivered_bits = 0
    lost_bits = 0
    # On this path every inbox slot holds a plain list; the Sequence-typed
    # slot only widens for the columnar plan's lazy views.
    boxes = cast("list[list[Message]]", inboxes)
    delivered_append = delivered.append

    pairs: Iterable[tuple[MessageRecord, int]]
    if batch.sender_sorted:
        pairs = zip(batch.records, batch.offsets)
    else:
        pairs = sorted(
            zip(batch.records, batch.offsets),
            key=lambda pair: pair[0].sender,
        )
    # Fast path: nothing omitted and every recipient still live — the
    # overwhelmingly common round shape.
    clean = not omitted_set and live is None

    for record, base in pairs:
        if type(record) is Multicast:
            sender = record.sender
            payload = record.payload
            bits = record.bits
            recipients = record.recipients
            if clean:
                copies = [
                    Message(sender, recipient, payload, bits)
                    for recipient in recipients
                ]
                for message, recipient in zip(copies, recipients):
                    boxes[recipient].append(message)
                delivered.extend(copies)
                delivered_bits += bits * len(recipients)
                continue
            for position, recipient in enumerate(recipients):
                if base + position in omitted_set:
                    # Omitted wins over lost: skipped before the
                    # liveness check (see repro.runtime.metrics).
                    continue
                message = Message(sender, recipient, payload, bits)
                if live is not None and not live[recipient]:
                    # Recipient already terminated; the message is lost
                    # and counts in neither delivered counter.
                    lost.append(message)
                    lost_bits += bits
                else:
                    boxes[recipient].append(message)
                    delivered_append(message)
                    delivered_bits += bits
        else:
            message = cast(Message, record)
            if not clean:
                if base in omitted_set:
                    continue
                if live is not None and not live[message.recipient]:
                    lost.append(message)
                    lost_bits += message.bits
                    continue
            boxes[message.recipient].append(message)
            delivered_append(message)
            delivered_bits += message.bits

    return DeliveryReceipt(delivered, lost, delivered_bits, lost_bits)
