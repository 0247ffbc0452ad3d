"""Delivery: the communication-phase layer of the engine.

The engine's round structure (who advances when) is the round loop's
business (:meth:`repro.runtime.network.SyncNetwork.run`); *how* a
validated round of traffic is turned into inbox contents and metering
totals is this module's, as array math over the round's
:class:`~repro.runtime.messages.MessageBatch` vectors:

* :func:`validate_omissions` — the engine's omission legality check:
  integer entries (one dtype check), then range and faulty incidence as
  two vectorized membership tests;
* :func:`deliver` — adversary omissions become a boolean mask over flat
  copy indices, terminated-recipient filtering an index select against a
  liveness vector, and inbox assembly a grouped scatter (stable argsort by
  recipient, then boundary slicing).  Returns a :class:`DeliveryReceipt`;
* :class:`LazyMessageList` — a ``Sequence[Message]`` view over a set of
  flat copy indices.  Inboxes and the observer-facing delivered/lost
  lists are these views: per-copy :class:`Message` objects materialize
  only when a program or observer iterates them, and a process that
  ignores its inbox never pays for it;
* :func:`inbox_payloads` / :func:`inbox_senders` — the column read for
  receive loops that only count: an inbox's payloads and senders as plain
  lists in inbox order, without building a :class:`Message` on a lazy
  view and from the ``Message`` attributes on a plain-list inbox;
* :func:`inbox_columns` / :class:`ColumnInbox` — the same read as the TCP
  transport's wire shape: the coordinator ships ``(senders, payloads,
  bits)`` per hosted inbox, the worker wraps them back into a lazy
  ``Sequence[Message]`` (plain lists only: no numpy on that side);
* :func:`tagged` / :func:`tagged_from` — the one receive rule of the
  shipped protocols: a protocol message is a tuple headed by its tag, so a
  receive step keeps the payloads (with their senders) headed by its tag.

:func:`deliver` implements the metering identity and precedence pinned in
:mod:`repro.runtime.metrics` — ``sent = delivered + omitted + lost`` with
*omitted beats lost*.  The object-per-copy loop and the scalar validator
it replaced are kept in ``tests/delivery_oracle.py`` as the differential
oracle: same inboxes, orders, counters and errors
(``tests/test_columnar.py``).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence, Set
from itertools import repeat
from numbers import Integral
from typing import Any, NamedTuple, overload

import numpy as np

from .messages import Message, MessageBatch

#: One inbox by column — ``(senders, payloads, bits)``, plain lists in
#: inbox order: what :func:`inbox_columns` reads and the TCP wire carries.
InboxColumns = tuple[list[int], list[Any], list[int]]


class _LazyMessages(Sequence[Message]):
    """What the two lazy ``Sequence[Message]`` views share: the first
    element access fills ``_items`` once (``_materialize``, a per-copy site
    ``tests/test_removed_surfaces.py`` lists); a reader that never looks
    pays nothing."""

    __slots__ = ("_items",)

    _items: list[Message] | None

    def _materialize(self) -> list[Message]:
        raise NotImplementedError

    @overload
    def __getitem__(self, index: int) -> Message: ...

    @overload
    def __getitem__(self, index: slice) -> list[Message]: ...

    def __getitem__(self, index: int | slice) -> Message | list[Message]:
        return self._materialize()[index]

    def __iter__(self) -> Iterator[Message]:
        return iter(self._materialize())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({len(self)} copies)"


class LazyMessageList(_LazyMessages):
    """``Sequence[Message]`` over a vector of flat copy indices.

    :func:`deliver` hands these out as inboxes and as the observer hook's
    delivered/lost lists.  ``len``/truthiness are O(1) and touch no
    objects; :func:`inbox_payloads`, :func:`inbox_senders` and
    :func:`inbox_columns` read one column each without materializing.
    """

    __slots__ = ("_batch", "_indices")

    def __init__(self, batch: MessageBatch, indices: Any = None) -> None:
        # ``indices=None`` means *every* copy in the batch — the clean
        # all-to-all round — without materializing an identity arange.
        self._batch = batch
        self._indices = indices
        self._items = None

    def _gather(self, column: Any) -> Any:
        """``column`` restricted to this view's copies, in view order."""
        return column if self._indices is None else column[self._indices]

    def _materialize(self) -> list[Message]:
        # The only place flat indices become Message objects, entered
        # only when a consumer actually reads.
        items = self._items
        if items is None:
            batch, gather = self._batch, self._gather
            records = map(batch.records.__getitem__, gather(batch.copy_record).tolist())
            items = [
                Message(record.sender, recipient, record.payload, record.bits)
                for record, recipient in zip(records, gather(batch.copy_recipient).tolist())
            ]
            self._items = items
        return items

    def __len__(self) -> int:
        indices = self._indices
        return len(self._batch) if indices is None else len(indices)


class ColumnInbox(_LazyMessages):
    """``recipient``'s inbox over the columns a TCP step frame shipped:
    what a worker hands a hosted program.  Iterating builds
    ``Message(sender, recipient, payload, bits)``, field for field what
    the coordinator's inbox held; the column reads return its lists."""

    __slots__ = ("recipient", "senders", "payloads", "bits")

    def __init__(self, recipient: int, columns: InboxColumns) -> None:
        self.recipient = recipient
        self.senders, self.payloads, self.bits = columns
        self._items = None

    def _materialize(self) -> list[Message]:
        items = self._items
        if items is None:
            items = self._items = list(
                map(Message, self.senders, repeat(self.recipient), self.payloads, self.bits)
            )
        return items

    def __len__(self) -> int:
        return len(self.senders)


def inbox_payloads(inbox: Sequence[Message]) -> list[Any]:
    """``[message.payload for message in inbox]`` without the messages.

    The read for receive loops that only count, one spelling for every
    inbox kind: a gather from the round's payload table on a lazy view
    (no :class:`Message` built, nothing cached on the view), the shipped
    column itself inside a TCP worker, the attribute on a plain list
    (hand-built inboxes).
    """
    if type(inbox) is LazyMessageList:
        batch = inbox._batch
        payloads: list[Any] = batch.rec_payload[inbox._gather(batch.copy_record)].tolist()
        return payloads
    if type(inbox) is ColumnInbox:
        return inbox.payloads
    return [message.payload for message in inbox]


def inbox_senders(inbox: Sequence[Message]) -> list[int]:
    """``[message.sender for message in inbox]``, parallel to
    :func:`inbox_payloads` (``zip`` the two for ``(sender, payload)``)."""
    if type(inbox) is LazyMessageList:
        senders: list[int] = inbox._gather(inbox._batch.copy_sender).tolist()
        return senders
    if type(inbox) is ColumnInbox:
        return inbox.senders
    return [message.sender for message in inbox]


def tagged(
    inbox: Sequence[Message], tag: int, width: int | None = None
) -> list[tuple[Any, ...]]:
    """The payloads of ``inbox`` that are tuples headed by ``tag`` (of
    exactly ``width`` fields, when given), in inbox order."""
    payloads = inbox_payloads(inbox)
    if width is None:
        return [p for p in payloads if isinstance(p, tuple) and p and p[0] == tag]
    return [p for p in payloads if isinstance(p, tuple) and len(p) == width and p[0] == tag]


def tagged_from(
    senders: Sequence[int], payloads: Sequence[Any], tag: int, width: int | None = None
) -> list[tuple[int, tuple[Any, ...]]]:
    """:func:`tagged` with senders: the ``(sender, payload)`` pairs of an
    inbox's two columns (as :func:`inbox_senders` / :func:`inbox_payloads`
    read them) whose payload :func:`tagged` keeps.  A receive step that
    already holds the columns for a ``list.count`` tally filters them here
    rather than reading the inbox again."""
    pairs = zip(senders, payloads)
    if width is None:
        return [(s, p) for s, p in pairs if isinstance(p, tuple) and p and p[0] == tag]
    return [
        (s, p) for s, p in pairs if isinstance(p, tuple) and len(p) == width and p[0] == tag
    ]


def inbox_columns(inbox: Sequence[Message]) -> InboxColumns:
    """All three columns of ``inbox``: what crosses the TCP wire per hosted
    pid, for :class:`ColumnInbox` to wrap.  A lazy view builds no
    :class:`Message`, and a payload shared by k copies is one object k
    times, so pickle writes it once per frame."""
    if type(inbox) is LazyMessageList:
        bits: list[int] = inbox._gather(inbox._batch.copy_bits).tolist()
    else:
        bits = [message.bits for message in inbox]
    return inbox_senders(inbox), inbox_payloads(inbox), bits


class DeliveryReceipt(NamedTuple):
    """What one delivery step accomplished, for metering and observers.

    ``delivered`` reached a live recipient's inbox; ``lost`` survived the
    adversary but its recipient had already terminated.  The bit totals
    come from the batch's vectors so the
    :class:`~repro.runtime.report.RunReport` does not need a second
    O(copies) pass.
    """

    delivered: Sequence[Message]
    lost: Sequence[Message]
    delivered_bits: int
    lost_bits: int


def check_sender_order(batch: MessageBatch) -> None:
    """Raise ``ValueError`` unless a batch's records are in non-decreasing
    sender order, which every engine batch is: processes advance in pid
    order, and inboxes are filled in that order."""
    senders = batch.rec_sender
    if len(senders) > 1 and (senders[1:] < senders[:-1]).any():
        raise ValueError(
            "a MessageBatch's records must be in non-decreasing sender order"
        )


def validate_omissions(
    batch: MessageBatch, omit: Sequence[int], faulty: Set[int]
) -> None:
    """Raise :class:`AdversaryProtocolError` on an illegal omission
    schedule (the engine passes the canonical tuple): an entry that is
    not an integer, then — naming the smallest offender, as the scalar
    validator scanning the canonical schedule would — an index out of
    range or a copy that touches no faulty process."""
    from .network import AdversaryProtocolError

    if not omit:
        return
    indices = np.array(omit)
    if indices.ndim != 1 or indices.dtype.kind not in "iu":
        # The one dtype check passes every well-formed schedule; only one
        # numpy cannot hold as integers is walked here, in repr order so
        # the entry named does not depend on hash order.
        for entry in sorted(omit, key=repr):
            if not isinstance(entry, Integral):
                raise AdversaryProtocolError(f"omit entry {entry!r} is not an integer")
        # Integers beyond int64 stay Python ints: out of range below.
        indices = np.array([int(entry) for entry in omit], dtype=object)
    total = len(batch)
    legal = (indices >= 0) & (indices < total)
    inside = indices[legal].astype(np.int64)
    faulty_array = np.fromiter(faulty, dtype=np.int64, count=len(faulty))
    legal[legal] = np.isin(batch.copy_sender[inside], faulty_array) | np.isin(
        batch.copy_recipient[inside], faulty_array
    )
    if legal.all():
        return
    index = int(indices[~legal].min())
    if not 0 <= index < total:
        raise AdversaryProtocolError(
            f"omit index {index} out of range ({total} messages this round)"
        )
    raise AdversaryProtocolError(
        "omissions are only allowed on messages to/from faulty processes; "
        f"message {batch.copy_sender[index]}->{batch.copy_recipient[index]} "
        "touches none"
    )


_EMPTY: tuple[Message, ...] = ()


def deliver(
    batch: MessageBatch,
    omitted: Sequence[int],
    inboxes: list[Sequence[Message]],
    live: Sequence[bool] | None,
) -> DeliveryReceipt:
    """Place surviving copies into ``inboxes``, in sender order.

    ``omitted`` holds validated flat copy indices (canonical: sorted,
    de-duplicated); ``live[pid]`` is False for terminated recipients, and
    ``None`` means every process is live (the clean-round fast path).
    Every slot of ``inboxes`` must hold a plain list on entry (the
    execution core's advance resets them); each recipient that received
    traffic gets a :class:`LazyMessageList`.  Omission precedence is the
    engine-wide rule (see ``repro.runtime.metrics``): a copy that is both
    omitted and addressed to a terminated recipient counts as omitted,
    never as lost.  A batch whose records are out of sender order is a
    ``ValueError`` (:func:`check_sender_order`), raised before any copy
    moves.
    """
    check_sender_order(batch)
    if not omitted and live is None:
        # Clean round: everything sent is delivered.  ``None`` stands for
        # the identity index vector so neither an arange nor a gather is
        # paid; the grouped scatter sorts ``copy_recipient`` directly.
        delivered = None
        lost = None
        delivered_bits = batch.total_bits()
        lost_bits = 0
    else:
        keep = np.ones(len(batch), dtype=bool)
        if omitted:
            keep[np.fromiter(omitted, dtype=np.int64, count=len(omitted))] = False
        if live is not None:
            recipient_live = np.asarray(live, dtype=bool)[batch.copy_recipient]
            delivered = np.flatnonzero(keep & recipient_live)
            lost = np.flatnonzero(keep & ~recipient_live)
        else:
            delivered = np.flatnonzero(keep)
            lost = delivered[:0]
        copy_bits = batch.copy_bits
        delivered_bits = int(copy_bits[delivered].sum())
        lost_bits = int(copy_bits[lost].sum())

    if delivered is None:
        recipients = batch.copy_recipient
        grouped = None
    elif delivered.shape[0]:
        recipients = batch.copy_recipient[delivered]
        grouped = delivered
    else:
        recipients = None
        grouped = None
    if recipients is not None and recipients.shape[0]:
        # Grouped scatter: stable sort by recipient keeps flat-index order
        # inside each group, which is the engine's sender-sorted inbox
        # contract (engine batches are sender-sorted, so flat order is
        # sender order).
        order = np.argsort(recipients, kind="stable")
        grouped = order if grouped is None else grouped[order]
        grouped_recipients = recipients[order]
        boundaries = np.flatnonzero(grouped_recipients[1:] != grouped_recipients[:-1])
        starts = np.empty(boundaries.shape[0] + 1, dtype=np.int64)
        starts[0] = 0
        starts[1:] = boundaries + 1
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = grouped.shape[0]
        owners = grouped_recipients[starts].tolist()
        for owner, start, end in zip(owners, starts.tolist(), ends.tolist()):
            inboxes[owner] = LazyMessageList(batch, grouped[start:end])

    if delivered is None:
        delivered_view: Sequence[Message] = LazyMessageList(batch) if len(batch) else _EMPTY
    else:
        delivered_view = LazyMessageList(batch, delivered) if delivered.shape[0] else _EMPTY
    lost_view: Sequence[Message] = (
        LazyMessageList(batch, lost) if lost is not None and lost.shape[0] else _EMPTY
    )
    return DeliveryReceipt(delivered_view, lost_view, delivered_bits, lost_bits)


__all__ = [
    "ColumnInbox",
    "DeliveryReceipt",
    "InboxColumns",
    "LazyMessageList",
    "check_sender_order",
    "deliver",
    "inbox_columns",
    "inbox_payloads",
    "inbox_senders",
    "tagged",
    "tagged_from",
    "validate_omissions",
]
