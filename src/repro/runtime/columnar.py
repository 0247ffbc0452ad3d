"""Columnar (numpy-vectorized) round representation for the engine.

The object delivery loop spends its rounds making Python objects: one
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
object loop's, which is what lets record/replay fingerprints certify the
two paths byte-for-byte against each other (``tests/test_columnar.py``).

numpy is an optional dependency: when it is missing, :data:`HAVE_NUMPY`
is False and :mod:`repro.runtime.delivery` sends every batch through the
object loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import repeat
from typing import Any, overload

from .messages import Message, Multicast

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is optional
    np = None  # type: ignore[assignment]

#: Whether numpy, and with it the columnar plan, is available here.
HAVE_NUMPY = np is not None

#: Cache of fan-out tuples already converted to arrays, keyed by tuple
#: identity.  ``ProcessEnv.broadcast`` caches its fan-out tuple per
#: process, so across rounds the same tuple objects recur; holding a
#: strong reference to the tuple keeps its ``id`` valid for the cache's
#: lifetime (one cache per network).
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
        """Vectorize a record list (requires :data:`HAVE_NUMPY`).

        Runs of consecutive point-to-point records are converted in one
        array each; multicast fan-out tuples go through ``fanout_cache``
        so a per-round broadcast whose (cached) recipient tuple recurs
        every round converts exactly once per network.
        """
        count = len(records)
        # Pids fit comfortably in int32; the narrower dtype makes the
        # per-round stable argsort in :func:`plan_delivery` measurably
        # faster at large n (and halves the resident column size).
        rec_sender = np.empty(count, dtype=np.int32)
        rec_count = np.empty(count, dtype=np.int64)
        rec_bits = np.empty(count, dtype=np.int64)
        chunks: list[Any] = []
        run: list[int] = []
        for position, record in enumerate(records):
            rec_sender[position] = record.sender
            rec_bits[position] = record.bits
            if type(record) is Multicast:
                if run:
                    chunks.append(np.array(run, dtype=np.int32))
                    run = []
                recipients = record.recipients
                rec_count[position] = len(recipients)
                if fanout_cache is not None:
                    cached = fanout_cache.get(id(recipients))
                    if cached is None or cached[0] is not recipients:
                        cached = (
                            recipients,
                            np.array(recipients, dtype=np.int32),
                        )
                        fanout_cache[id(recipients)] = cached
                    chunks.append(cached[1])
                else:
                    chunks.append(np.array(recipients, dtype=np.int32))
            else:
                rec_count[position] = 1
                run.append(record.recipient)
        if run:
            chunks.append(np.array(run, dtype=np.int32))
        copy_recipient = (
            np.concatenate(chunks)
            if chunks
            else np.empty(0, dtype=np.int32)
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
    ``tests/test_removed_surfaces.py`` lists — the cost the object loop
    pays unconditionally); a reader that never looks pays nothing."""

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
    (object loop, partial-synchrony merges).
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
    observer-facing per-copy sequences in flat index order — exactly the
    order the object loop appends them in.
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
    "HAVE_NUMPY",
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
