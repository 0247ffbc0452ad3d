"""Delivery: the communication-phase layer of the engine.

The engine's round structure (who advances when) is the round loop's
business (:meth:`repro.runtime.network.SyncNetwork.run`); *how* a
validated round of traffic is turned into inbox contents and
metering totals is this module's.  A network owns one :class:`Delivery`
(:meth:`~Delivery.validate_omissions`, :meth:`~Delivery.deliver`), and
every batch takes the columnar plan
(:func:`repro.runtime.columnar.plan_delivery`): omissions as keep masks,
inbox assembly as a grouped scatter, lazy ``Message`` views.

The plan implements the metering identity and precedence pinned in
:mod:`repro.runtime.metrics` — ``sent = delivered + omitted + lost`` with
*omitted beats lost*.  The object-per-copy loop it replaced is kept in
``tests/delivery_oracle.py`` as the differential oracle: same inboxes,
orders and counters (``tests/test_columnar.py``).
"""

from __future__ import annotations

from collections.abc import Sequence, Set
from typing import NamedTuple

from .columnar import (
    ColumnarBatch,
    FanoutCache,
    first_illegal_omission,
    plan_delivery,
)
from .messages import Message, MessageBatch


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


def check_sender_order(columns: ColumnarBatch) -> None:
    """Raise ``ValueError`` unless a batch's records are in non-decreasing
    sender order, which every engine batch is: processes advance in pid
    order, and inboxes are filled in that order."""
    senders = columns.rec_sender
    if len(senders) > 1 and (senders[1:] < senders[:-1]).any():
        raise ValueError(
            "a MessageBatch's records must be in non-decreasing sender order"
        )


class Delivery:
    """One network's communication phase (see the module docstring)."""

    __slots__ = ("_fanout_cache",)

    def __init__(self) -> None:
        # Fan-out tuples already converted to index arrays, shared across
        # rounds: ProcessEnv.broadcast caches its fan-out tuple per
        # process, so the same tuple objects recur every round.
        self._fanout_cache: FanoutCache = {}

    def columns(self, batch: MessageBatch) -> ColumnarBatch:
        """``batch`` as column vectors, built once per batch with this
        network's fan-out cache (the adversary's view, validation and
        delivery share them)."""
        return batch.columns(self._fanout_cache)

    def validate_omissions(
        self, batch: MessageBatch, omit: Sequence[int], faulty: Set[int]
    ) -> None:
        """Raise :class:`AdversaryProtocolError` on an illegal schedule.

        ``omit`` is already canonical (sorted, de-duplicated), so the
        offender named is the first in sorted order.
        """
        total = len(batch)
        if not total:
            if omit:
                _raise_illegal(total, omit[0], -1, -1, out_of_range=True)
            return
        offender = first_illegal_omission(
            self.columns(batch), omit, frozenset(faulty)
        )
        if offender is not None:
            kind, index, sender, recipient = offender
            _raise_illegal(
                total, index, sender, recipient, out_of_range=kind == "range"
            )

    def deliver(
        self,
        batch: MessageBatch,
        omitted: Sequence[int],
        inboxes: list[Sequence[Message]],
        live: Sequence[bool] | None,
    ) -> DeliveryReceipt:
        """Place surviving copies into ``inboxes``, in sender order.

        A batch whose records are out of sender order is a ``ValueError``
        (:func:`check_sender_order`).

        ``live[pid]`` is False for terminated recipients; ``None`` means
        every process is live (the common case, enabling fast paths).
        Every slot of ``inboxes`` must hold a plain list on entry (the
        execution core's advance resets them).
        """
        columns = self.columns(batch)
        check_sender_order(columns)
        plan = plan_delivery(
            columns, omitted, None if live is None else list(live)
        )
        for recipient, view in plan.inboxes:
            inboxes[recipient] = view
        return DeliveryReceipt(
            plan.delivered, plan.lost, plan.delivered_bits, plan.lost_bits
        )
