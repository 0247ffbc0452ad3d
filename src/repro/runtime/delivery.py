"""Delivery: the communication-phase layer of the engine.

The round loop (:meth:`repro.runtime.network.SyncNetwork.run`) decides who
advances when; this module turns a validated round of traffic into inbox
contents and metering totals, as array math over the round's
:class:`~repro.runtime.messages.MessageBatch` vectors:

* :func:`validate_omissions` — the omission legality check: integer
  entries (one dtype check), then range and faulty incidence as two
  vectorized membership tests;
* :func:`deliver` — omissions and terminated recipients become one keep
  mask, which filters the batch's one recipient sort (the adversary's view
  read the same sort); every recipient's inbox is a slice of the result;
* :class:`CopyColumns` — copies by column (senders, recipients, payloads,
  bits), each a plain list converted on first read, once per round;
* :class:`ColumnInbox` — the one inbox class, a ``Sequence[Message]`` over
  a slice of a :class:`CopyColumns`: inboxes, the receipt's delivered/lost
  lists and a TCP worker's inboxes alike;
* :func:`inbox_payloads` / :func:`inbox_senders` / :func:`inbox_columns` —
  an inbox read by column, without building a :class:`Message`
  (``inbox_columns`` is what the TCP transport ships per hosted pid);
* :func:`tagged` / :func:`tagged_from` — the one receive rule: a protocol
  message is a tuple headed by its tag.

:func:`deliver` implements the metering identity and precedence pinned in
:mod:`repro.runtime.metrics` — ``sent = delivered + omitted + lost`` with
*omitted beats lost*.  The object-per-copy loop and the scalar validator
it replaced are the differential oracle in ``tests/delivery_oracle.py``:
same inboxes, orders, counters and errors (``tests/test_columnar.py``).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence, Set
from functools import cached_property
from numbers import Integral
from typing import Any, NamedTuple, overload

import numpy as np

from .messages import ALL, Message, MessageBatch

#: One inbox by column — ``(senders, payloads, bits)``, plain lists in
#: inbox order: what :func:`inbox_columns` reads and the TCP wire carries.
InboxColumns = tuple[list[int], list[Any], list[int]]


#: Copies per gather when a column becomes a list (see CopyColumns).
_GATHER_CHUNK = 1 << 16


class CopyColumns:
    """Some of a batch's copies by column, in a given order.

    ``order`` indexes the flat copies (:data:`~repro.runtime.messages.ALL`:
    every copy, in flat order).  Each column — ``senders``,
    ``recipients``, ``payloads``, ``bits`` — becomes a plain list on its
    first read and stays one, so a round converts each column it reads
    once, whoever reads it; a column nobody reads is never converted.  A
    copy's entries are its record's objects: a sender pid or a payload
    shared by k copies is one object k times.  :meth:`of` wraps columns
    already read.
    """

    def __init__(self, batch: MessageBatch, order: Any = ALL) -> None:
        self._batch = batch
        self._order = order

    @classmethod
    def of(
        cls, senders: list[int], recipients: list[int], payloads: list[Any], bits: list[int]
    ) -> CopyColumns:
        """Columns already plain lists (a TCP worker's shipped inbox)."""
        columns = cls.__new__(cls)
        vars(columns).update(
            senders=senders, recipients=recipients, payloads=payloads, bits=bits
        )
        return columns

    @cached_property
    def _records(self) -> Any:
        """The record owning each copy, in this order."""
        return self._batch.record_of(self._order)

    def _per_copy(self, record_column: Sequence[Any]) -> list[Any]:
        """A record-level column repeated per copy, in this order, gathered
        from a transient object vector a chunk at a time into a list
        allocated once, so a big round holds neither a full-length object
        vector nor a regrown list (peak RSS at n=1024)."""
        table = np.fromiter(record_column, dtype=object, count=len(record_column))
        records = self._records
        column: list[Any] = [None] * records.shape[0]
        for start in range(0, len(column), _GATHER_CHUNK):
            end = start + _GATHER_CHUNK
            column[start:end] = table[records[start:end]].tolist()
        return column

    @cached_property
    def senders(self) -> list[int]:
        return self._per_copy(self._batch.senders)

    @cached_property
    def payloads(self) -> list[Any]:
        return self._per_copy(self._batch.payloads)

    @cached_property
    def bits(self) -> list[int]:
        return self._per_copy(self._batch.bits)

    @cached_property
    def recipients(self) -> list[int]:
        recipients: list[int] = self._batch.copy_recipient[self._order].tolist()
        return recipients


class ColumnInbox(Sequence[Message]):
    """``Sequence[Message]`` over copies ``start:end`` of a
    :class:`CopyColumns`: an inbox, or a receipt's delivered/lost list.

    The column attributes are slices of the shared lists (the lists
    themselves when ``start:end`` spans them: a TCP worker's inbox);
    iterating or indexing builds ``Message(sender, recipient, payload,
    bits)`` per copy once (``_materialize``, a per-copy site
    ``tests/test_removed_surfaces.py`` lists); a reader that only counts
    or reads columns builds none.
    """

    __slots__ = ("_columns", "_start", "_end", "_items", "__weakref__")

    def __init__(self, columns: CopyColumns, start: int = 0, end: int | None = None) -> None:
        self._columns = columns
        self._start = start
        self._end = len(columns.senders) if end is None else end
        self._items: list[Message] | None = None

    def _column(self, column: list[Any]) -> list[Any]:
        whole = self._start == 0 and self._end == len(column)
        return column if whole else column[self._start : self._end]

    @property
    def senders(self) -> list[int]:
        return self._column(self._columns.senders)

    @property
    def recipients(self) -> list[int]:
        return self._column(self._columns.recipients)

    @property
    def payloads(self) -> list[Any]:
        return self._column(self._columns.payloads)

    @property
    def bits(self) -> list[int]:
        return self._column(self._columns.bits)

    def _materialize(self) -> list[Message]:
        items = self._items
        if items is None:
            items = self._items = [
                Message(sender, recipient, payload, bits)
                for sender, recipient, payload, bits in zip(
                    self.senders, self.recipients, self.payloads, self.bits
                )
            ]
        return items

    def __len__(self) -> int:
        return self._end - self._start

    @overload
    def __getitem__(self, index: int) -> Message: ...

    @overload
    def __getitem__(self, index: slice) -> list[Message]: ...

    def __getitem__(self, index: int | slice) -> Message | list[Message]:
        return self._materialize()[index]

    def __iter__(self) -> Iterator[Message]:
        return iter(self._materialize())


def inbox_payloads(inbox: Sequence[Message]) -> list[Any]:
    """``[message.payload for message in inbox]`` without the messages.

    The read for receive loops that only count, one spelling for every
    inbox kind: a slice of the round's payload column on a
    :class:`ColumnInbox` (no :class:`Message` built), the attribute on a
    plain list (hand-built inboxes).
    """
    if type(inbox) is ColumnInbox:
        return inbox.payloads
    return [message.payload for message in inbox]


def inbox_senders(inbox: Sequence[Message]) -> list[int]:
    """``[message.sender for message in inbox]``, parallel to
    :func:`inbox_payloads` (``zip`` the two for ``(sender, payload)``)."""
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
    pid.  A :class:`ColumnInbox` builds no :class:`Message`, and a payload
    shared by k copies is one object k times, so pickle writes it once per
    frame."""
    bits = inbox.bits if type(inbox) is ColumnInbox else [message.bits for message in inbox]
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
_NO_COPIES = np.empty(0, dtype=np.int64)


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
    Each recipient that received traffic gets a :class:`ColumnInbox`: a
    slice of the round's delivered copies, grouped by the batch's one
    recipient sort filtered by the keep mask (no second sort).  Omission
    precedence is the engine-wide rule (see ``repro.runtime.metrics``): a
    copy that is both omitted and addressed to a terminated recipient
    counts as omitted, never as lost.  A batch whose records are out of
    sender order is a ``ValueError`` (:func:`check_sender_order`), raised
    before any copy moves.
    """
    check_sender_order(batch)
    # A clean round delivers everything, grouped by the shared sort.
    order, bounds = batch.recipient_order, batch.recipient_bounds
    delivered: Any = ALL
    lost: Any = _NO_COPIES
    delivered_bits, lost_bits = batch.total_bits(), 0
    if omitted or live is not None:
        keep = np.ones(len(batch), dtype=bool)
        if omitted:
            keep[np.fromiter(omitted, dtype=np.int64, count=len(omitted))] = False
        if live is not None:
            recipient_live = np.asarray(live, dtype=bool)[batch.copy_recipient]
            lost = np.flatnonzero(keep & ~recipient_live)
            keep &= recipient_live
        delivered = np.flatnonzero(keep)
        copy_bits = batch.copy_bits
        delivered_bits = int(copy_bits[delivered].sum())
        lost_bits = int(copy_bits[lost].sum())
        # Filtering the stable sort keeps each recipient's copies in flat
        # (sender) order: the engine's sender-sorted inbox contract.
        order = order[keep[order]]
        kept = np.bincount(batch.copy_recipient[keep], minlength=len(bounds) - 1)
        bounds = np.zeros_like(bounds)
        np.cumsum(kept, out=bounds[1:])

    total = order.shape[0]
    if total:
        columns = CopyColumns(batch, order)
        starts = bounds.tolist()
        for owner, (start, end) in enumerate(zip(starts, starts[1:])):
            if start != end:
                inboxes[owner] = ColumnInbox(columns, start, end)
    delivered_view: Sequence[Message] = (
        ColumnInbox(CopyColumns(batch, delivered), 0, total) if total else _EMPTY
    )
    lost_view: Sequence[Message] = (
        ColumnInbox(CopyColumns(batch, lost), 0, lost.shape[0]) if lost.shape[0] else _EMPTY
    )
    return DeliveryReceipt(delivered_view, lost_view, delivered_bits, lost_bits)


__all__ = [
    "ColumnInbox",
    "CopyColumns",
    "DeliveryReceipt",
    "InboxColumns",
    "check_sender_order",
    "deliver",
    "inbox_columns",
    "inbox_payloads",
    "inbox_senders",
    "tagged",
    "tagged_from",
    "validate_omissions",
]
