"""The reference object-per-copy delivery loop, kept as a differential oracle.

The engine delivers every batch as array math over its column vectors
(:mod:`repro.runtime.delivery`).  What it replaced — one Python step and one
:class:`Message` per copy, the scalar omission validator — lives here,
walking the batch's four send columns record by record, and
:func:`pin_object_loop` routes a network's delivery layer through it, so a
test can run the same execution both ways and compare inboxes, orders,
counters and errors byte for byte.  :func:`batch_of` hand-builds a batch
and :func:`queued` reads what an env queued, for the tests that need
either.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Set
from typing import Any, cast

import numpy as np
import pytest

from repro.runtime import AdversaryProtocolError, delivery
from repro.runtime.delivery import DeliveryReceipt, check_sender_order
from repro.runtime.messages import (
    MESSAGE_OVERHEAD_BITS,
    Message,
    MessageBatch,
    Record,
    SendColumns,
    payload_bits,
)


def batch_of(records: Iterable[Message | tuple[int, Sequence[int], Any]]) -> MessageBatch:
    """A hand-built batch, one send-column entry per record: a
    :class:`Message` is a one-copy record, ``(sender, recipients,
    payload)`` a fan-out sized as ``env.send_many`` sizes it."""
    columns: SendColumns = ([], [], [], [])
    senders, fanouts, payloads, bits = columns
    for record in records:
        if isinstance(record, Message):
            senders.append(record.sender)
            fanouts.append((record.recipient,))
            payloads.append(record.payload)
            bits.append(record.bits)
        else:
            sender, recipients, payload = record
            senders.append(sender)
            fanouts.append(tuple(recipients))
            payloads.append(payload)
            bits.append(payload_bits(payload) + MESSAGE_OVERHEAD_BITS)
    return MessageBatch(*columns)


def queued(env: Any) -> list[Record]:
    """What ``env`` queued into its current send columns, one
    :class:`Record` per send call."""
    return list(map(Record, *env.columns))


def clear(env: Any) -> None:
    """Start ``env`` on fresh send columns (a new round's)."""
    env.columns = ([], [], [], [])


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
    clean = not omitted_set and live is None

    for sender, recipients, payload, bits, base in zip(
        batch.senders, batch.fanouts, batch.payloads, batch.bits, offsets.tolist()
    ):
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

    return DeliveryReceipt(delivered, lost, delivered_bits, lost_bits)


def pin_object_loop(patch: pytest.MonkeyPatch) -> None:
    """Route every network's validation and delivery through the oracle
    (a test seam, not an option)."""
    patch.setattr(delivery, "validate_omissions", validate_objects)
    patch.setattr(delivery, "deliver", deliver_objects)
