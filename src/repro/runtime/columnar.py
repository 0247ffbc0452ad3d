"""Columnar (numpy-vectorized) round representation for the engine.

An object-per-copy delivery loop spends its rounds making Python objects: one
:class:`Message` per multicast copy, one list append per inbox entry, one
``set`` probe per omit index.  At n=512 an all-to-all round is ~260k
copies, so even with broadcasts sized and queued per *record* it tops out
on per-copy Python work.

This module re-expresses a round's outbound batch as contiguous arrays —
the *columnar* layout — so the communication phase becomes a handful of
vectorized index operations:

* :class:`ColumnarBatch` — per-record vectors (sender id, fan-out count,
  per-copy bit size) with multicast fan-out stored as offset ranges into
  one flat ``copy_recipient`` vector; per-copy columns (``copy_sender``,
  ``copy_bits``, ``copy_record``) are derived lazily by ``np.repeat`` when
  a consumer actually needs them.  Payloads stay Python objects, indexed
  per record (the payload table) — they are never copied or inspected.
* :func:`plan_delivery` — the whole communication phase as array math:
  adversary omissions become a boolean mask over flat copy indices,
  terminated-recipient filtering an index select against a liveness
  vector, and inbox assembly a grouped scatter (stable argsort by
  recipient, then boundary slicing).  Returns a :class:`DeliveryPlan`.
* :class:`LazyMessageList` — a ``Sequence[Message]`` view over a set of
  flat copy indices.  Inboxes and the observer-facing delivered/lost
  lists are these views: per-copy :class:`Message` objects materialize
  only when a program or observer iterates them, and a process that
  ignores its inbox never pays for it.
* :func:`inbox_payloads` / :func:`inbox_senders` — the column read for
  receive loops that only count: an inbox's payloads and senders as plain
  lists in inbox order, without building a :class:`Message` on a lazy
  view and from the ``Message`` attributes on a plain-list inbox.
* :func:`inbox_columns` / :class:`ColumnInbox` — the same read as the TCP
  transport's wire shape: the coordinator ships ``(senders, payloads,
  bits)`` per hosted inbox, the worker wraps them back into a lazy
  ``Sequence[Message]`` (plain lists only: no numpy on that side).
* :func:`first_illegal_omission` — the engine's omission legality check
  (range + faulty-incidence) as two vectorized membership tests, matching
  the scalar validator index-for-index.

Everything here is *representation only*: flat copy indices, sender-sorted
inbox order, and every :class:`Metrics` counter are identical to the
reference object-per-copy loop's, which ``tests/delivery_oracle.py``
keeps as the differential oracle (``tests/test_columnar.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import repeat
from typing import Any, overload

import numpy as np

from .messages import Message, Multicast

#: Fan-out tuples seen in the previous batch, keyed by tuple identity,
#: with their index array once converted.  ``ProcessEnv.broadcast`` caches
#: its fan-out tuple per process, so across rounds the same tuple objects
#: recur; a tuple seen in two consecutive batches is converted once and
#: reused while it recurs.  Each batch keeps only the tuples it used, so
#: one-off ``send_many`` tuples neither pile up nor get an array of their
#: own.  Holding the tuple keeps its ``id`` valid while it is cached.
FanoutCache = dict[int, tuple[tuple[int, ...], Any]]


class ColumnarBatch:
    """One round's outbound traffic as contiguous vectors.

    Built from a :class:`MessageBatch`'s records; the batch caches the
    result, so the arrays are constructed at most once per round however
    many consumers (the adversary's view, validation, delivery, inbox
    reads) touch them.
    """

    def __init__(
        self,
        records: list[Message | Multicast],
        rec_sender: Any,
        rec_count: Any,
        rec_bits: Any,
        copy_recipient: Any,
    ) -> None:
        self.records = records
        self.rec_sender = rec_sender
        self.rec_count = rec_count
        self.rec_bits = rec_bits
        self.copy_recipient = copy_recipient
        self.total_copies = int(copy_recipient.shape[0])

    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: list[Message | Multicast],
        fanout_cache: FanoutCache | None = None,
    ) -> ColumnarBatch:
        """Vectorize a record list.

        Recipients go into one list converted in a single array, except a
        multicast fan-out tuple that ``fanout_cache`` (see
        :data:`FanoutCache`) saw in the previous batch: it is converted
        once and its array reused.  ``fanout_cache`` is left holding this
        batch's tuples.
        """
        senders: list[int] = []
        counts: list[int] = []
        bits: list[int] = []
        chunks: list[Any] = []
        run: list[int] = []
        seen: FanoutCache = {}
        for record in records:
            senders.append(record.sender)
            bits.append(record.bits)
            if type(record) is not Multicast:
                counts.append(1)
                run.append(record.recipient)
                continue
            recipients = record.recipients
            counts.append(len(recipients))
            if fanout_cache is None:
                run.extend(recipients)
                continue
            key = id(recipients)
            cached = seen.get(key) or fanout_cache.get(key)
            if cached is None or cached[0] is not recipients:
                seen[key] = (recipients, None)
                run.extend(recipients)
                continue
            array = cached[1]
            if array is None:
                array = np.array(recipients, dtype=np.int32)
            seen[key] = (recipients, array)
            if run:
                chunks.append(np.array(run, dtype=np.int32))
                run = []
            chunks.append(array)
        if fanout_cache is not None:
            fanout_cache.clear()
            fanout_cache.update(seen)
        if run or not chunks:
            chunks.append(np.array(run, dtype=np.int32))
        # Pids fit comfortably in int32; the narrower dtype makes the
        # per-round stable argsort in :func:`plan_delivery` measurably
        # faster at large n (and halves the resident column size).
        rec_sender = np.array(senders, dtype=np.int32)
        rec_count = np.array(counts, dtype=np.int64)
        rec_bits = np.array(bits, dtype=np.int64)
        copy_recipient = (
            chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        )
        return cls(records, rec_sender, rec_count, rec_bits, copy_recipient)

    # ------------------------------------------------------------------
    # Lazily derived columns, each built on first use.
    @cached_property
    def copy_sender(self) -> Any:
        return np.repeat(self.rec_sender, self.rec_count)

    @cached_property
    def copy_bits(self) -> Any:
        return np.repeat(self.rec_bits, self.rec_count)

    @cached_property
    def copy_record(self) -> Any:
        """Record position owning each flat copy (the payload-table key)."""
        return np.repeat(
            np.arange(len(self.records), dtype=np.int64), self.rec_count
        )

    @cached_property
    def rec_payload(self) -> Any:
        """The payload table: each record's payload, as an object vector
        that ``copy_record`` positions gather from."""
        table = np.empty(len(self.records), dtype=object)
        for position, record in enumerate(self.records):
            table[position] = record.payload
        return table

    def total_bits(self) -> int:
        """Sum of per-copy bits over the batch, from the record vectors."""
        return int(self.rec_bits @ self.rec_count)

    def copy_indices(
        self, senders: Iterable[int], recipients: Iterable[int]
    ) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """:meth:`MessageBatch.copy_indices`, as one vectorized select per
        asked pid and side."""
        sent, to = self.copy_sender, self.copy_recipient
        return (
            {pid: np.flatnonzero(sent == pid).tolist() for pid in senders},
            {pid: np.flatnonzero(to == pid).tolist() for pid in recipients},
        )


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

    The columnar plan hands these out as inboxes and as the observer
    hook's delivered/lost lists.  ``len``/truthiness are O(1) and touch no
    objects; :func:`inbox_payloads`, :func:`inbox_senders` and
    :func:`inbox_columns` read one column each without materializing.
    """

    __slots__ = ("_cols", "_indices")

    def __init__(self, cols: ColumnarBatch, indices: Any = None) -> None:
        # ``indices=None`` means *every* copy in the batch — the clean
        # all-to-all round — without materializing an identity arange.
        self._cols = cols
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
            cols, gather = self._cols, self._gather
            records = map(cols.records.__getitem__, gather(cols.copy_record).tolist())
            items = [
                Message(record.sender, recipient, record.payload, record.bits)
                for record, recipient in zip(records, gather(cols.copy_recipient).tolist())
            ]
            self._items = items
        return items

    def __len__(self) -> int:
        indices = self._indices
        return self._cols.total_copies if indices is None else len(indices)


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
    (partial-synchrony merges, hand-built inboxes).
    """
    if type(inbox) is LazyMessageList:
        cols = inbox._cols
        payloads: list[Any] = cols.rec_payload[inbox._gather(cols.copy_record)].tolist()
        return payloads
    if type(inbox) is ColumnInbox:
        return inbox.payloads
    return [message.payload for message in inbox]


def inbox_senders(inbox: Sequence[Message]) -> list[int]:
    """``[message.sender for message in inbox]``, parallel to
    :func:`inbox_payloads` (``zip`` the two for ``(sender, payload)``)."""
    if type(inbox) is LazyMessageList:
        senders: list[int] = inbox._gather(inbox._cols.copy_sender).tolist()
        return senders
    if type(inbox) is ColumnInbox:
        return inbox.senders
    return [message.sender for message in inbox]


def inbox_columns(inbox: Sequence[Message]) -> InboxColumns:
    """All three columns of ``inbox``: what crosses the TCP wire per hosted
    pid, for :class:`ColumnInbox` to wrap.  A lazy view builds no
    :class:`Message`, and a payload shared by k copies is one object k
    times, so pickle writes it once per frame."""
    if type(inbox) is LazyMessageList:
        bits: list[int] = inbox._gather(inbox._cols.copy_bits).tolist()
    else:
        bits = [message.bits for message in inbox]
    return inbox_senders(inbox), inbox_payloads(inbox), bits


_EMPTY: tuple[Message, ...] = ()


@dataclass(slots=True)
class DeliveryPlan:
    """Everything ``_deliver`` needs, computed in one vectorized pass.

    ``inboxes`` pairs each recipient that received traffic with its (lazy)
    inbox, in ascending recipient order; ``delivered``/``lost`` are the
    observer-facing per-copy sequences in flat index order.
    """

    inboxes: list[tuple[int, Sequence[Message]]]
    delivered: Sequence[Message]
    lost: Sequence[Message]
    delivered_bits: int
    lost_bits: int


def plan_delivery(
    cols: ColumnarBatch,
    omitted: Sequence[int],
    live: Sequence[bool] | None,
) -> DeliveryPlan:
    """Compute one communication phase over the columnar batch.

    ``omitted`` holds validated flat copy indices (canonical: sorted,
    de-duplicated); ``live`` is the per-pid liveness vector, or None when
    every process is still live.  Omission precedence is the engine-wide
    rule (see ``repro.runtime.metrics``): a copy that is both omitted and
    addressed to a terminated recipient counts as omitted, never as lost.
    """
    total = cols.total_copies
    if not omitted and live is None:
        # Clean round: everything sent is delivered.  ``None`` stands for
        # the identity index vector so neither an arange nor a gather is
        # paid; the grouped scatter sorts ``copy_recipient`` directly.
        delivered = None
        lost = None
        delivered_bits = cols.total_bits()
        lost_bits = 0
    else:
        keep = np.ones(total, dtype=bool)
        if omitted:
            keep[np.fromiter(omitted, dtype=np.int64, count=len(omitted))] = (
                False
            )
        if live is not None:
            recipient_live = np.asarray(live, dtype=bool)[
                cols.copy_recipient
            ]
            delivered = np.flatnonzero(keep & recipient_live)
            lost = np.flatnonzero(keep & ~recipient_live)
        else:
            delivered = np.flatnonzero(keep)
            lost = delivered[:0]
        copy_bits = cols.copy_bits
        delivered_bits = int(copy_bits[delivered].sum())
        lost_bits = int(copy_bits[lost].sum())

    inboxes: list[tuple[int, Sequence[Message]]] = []
    if delivered is None:
        recipients = cols.copy_recipient
        grouped = None
    elif delivered.shape[0]:
        recipients = cols.copy_recipient[delivered]
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
        boundaries = np.flatnonzero(
            grouped_recipients[1:] != grouped_recipients[:-1]
        )
        starts = np.empty(boundaries.shape[0] + 1, dtype=np.int64)
        starts[0] = 0
        starts[1:] = boundaries + 1
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = grouped.shape[0]
        owners = grouped_recipients[starts].tolist()
        for owner, start, end in zip(
            owners, starts.tolist(), ends.tolist()
        ):
            inboxes.append(
                (int(owner), LazyMessageList(cols, grouped[start:end]))
            )

    if delivered is None:
        delivered_view: Sequence[Message] = (
            LazyMessageList(cols) if total else _EMPTY
        )
    else:
        delivered_view = (
            LazyMessageList(cols, delivered) if delivered.shape[0] else _EMPTY
        )
    lost_view: Sequence[Message] = (
        LazyMessageList(cols, lost)
        if lost is not None and lost.shape[0]
        else _EMPTY
    )
    return DeliveryPlan(
        inboxes=inboxes,
        delivered=delivered_view,
        lost=lost_view,
        delivered_bits=delivered_bits,
        lost_bits=lost_bits,
    )


def first_illegal_omission(
    cols: ColumnarBatch,
    omit_sorted: Sequence[int],
    faulty: frozenset[int],
) -> tuple[str, int, int, int] | None:
    """Vectorized legality check over canonical (sorted) omit indices.

    Mirrors the scalar validator exactly: scanning the sorted indices,
    each is first range-checked, then faulty-incidence-checked.  Returns
    ``None`` when all are legal, else ``(kind, index, sender, recipient)``
    for the first offender — ``kind`` is ``"range"`` (sender/recipient
    are -1) or ``"endpoints"``.
    """
    indices = np.fromiter(
        omit_sorted, dtype=np.int64, count=len(omit_sorted)
    )
    in_range = (indices >= 0) & (indices < cols.total_copies)
    safe = np.where(in_range, indices, 0)
    senders = cols.copy_sender[safe]
    recipients = cols.copy_recipient[safe]
    if faulty:
        faulty_array = np.fromiter(
            faulty, dtype=np.int64, count=len(faulty)
        )
        touches_faulty = np.isin(senders, faulty_array) | np.isin(
            recipients, faulty_array
        )
    else:
        touches_faulty = np.zeros(indices.shape[0], dtype=bool)
    bad = ~(in_range & touches_faulty)
    if not bad.any():
        return None
    position = int(np.argmax(bad))
    index = int(indices[position])
    if not in_range[position]:
        return ("range", index, -1, -1)
    return (
        "endpoints",
        index,
        int(senders[position]),
        int(recipients[position]),
    )


__all__ = [
    "ColumnInbox",
    "InboxColumns",
    "ColumnarBatch",
    "DeliveryPlan",
    "FanoutCache",
    "LazyMessageList",
    "first_illegal_omission",
    "inbox_columns",
    "inbox_payloads",
    "inbox_senders",
    "plan_delivery",
]
