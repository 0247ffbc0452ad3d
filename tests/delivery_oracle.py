"""The reference object-per-copy delivery loop, kept as a differential oracle.

The engine delivers every batch as array math over its column vectors
(:mod:`repro.runtime.delivery`).  What it replaced — one Python step and one
:class:`Message` per copy, the scalar omission validator — lives here
verbatim, and :func:`pin_object_loop` routes a network's delivery layer
through it, so a test can run the same execution both ways and compare
inboxes, orders, counters and errors byte for byte.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Set
from typing import cast

import numpy as np
import pytest

from repro.runtime import AdversaryProtocolError, delivery
from repro.runtime.delivery import DeliveryReceipt, check_sender_order
from repro.runtime.messages import Message, MessageBatch, MessageRecord, Multicast


def validate_objects(
    batch: MessageBatch, omit: Sequence[int], faulty: Set[int]
) -> None:
    """The scalar omission validator: range, then faulty incidence, per
    canonical (sorted) index."""
    total = len(batch)
    for index in omit:
        if not 0 <= index < total:
            raise AdversaryProtocolError(
                f"omit index {index} out of range ({total} messages this round)"
            )
        copy = batch[index]
        sender, recipient = copy.sender, copy.recipient
        if sender not in faulty and recipient not in faulty:
            raise AdversaryProtocolError(
                "omissions are only allowed on messages to/from faulty "
                f"processes; message {sender}->{recipient} touches none"
            )


def deliver_objects(
    batch: MessageBatch,
    omitted: Sequence[int],
    inboxes: list[Sequence[Message]],
    live: Sequence[bool] | None,
) -> DeliveryReceipt:
    """The reference object-per-copy delivery loop.

    A batch out of sender order raises the engine's ``ValueError``; one
    ``Message`` per surviving copy.  The omission check runs *before* the recipient-liveness check,
    so a copy both omitted and addressed to a terminated recipient counts
    as omitted, never as lost.
    """
    omitted_set = set(omitted)
    delivered: list[Message] = []
    lost: list[Message] = []
    delivered_bits = 0
    lost_bits = 0
    boxes = cast("list[list[Message]]", inboxes)
    delivered_append = delivered.append

    check_sender_order(batch)
    offsets = np.cumsum(batch.rec_count) - batch.rec_count
    pairs: Iterable[tuple[MessageRecord, int]] = zip(batch.records, offsets.tolist())
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
                    continue
                message = Message(sender, recipient, payload, bits)
                if live is not None and not live[recipient]:
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


def pin_object_loop(patch: pytest.MonkeyPatch) -> None:
    """Route every network's validation and delivery through the oracle
    (a test seam, not an option)."""
    patch.setattr(delivery, "validate_omissions", validate_objects)
    patch.setattr(delivery, "deliver", deliver_objects)
