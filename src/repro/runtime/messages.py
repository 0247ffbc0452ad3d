"""Point-to-point messages, a round's send columns, and bit-size accounting.

The paper's communication complexity is measured in *bits* sent over
point-to-point channels (Section 2).  Every payload handed to
:meth:`ProcessEnv.send` is sized by :func:`payload_bits` at send time so that
benchmark numbers are directly comparable with the paper's
``O(n^2 log^3 n)``-style bounds.

``payload_bits`` is the hottest function in large simulations, so it
dispatches on exact types with the common cases (ints, tuples of ints)
first; the semantics are unchanged from the reference recursive definition.

A round's traffic never becomes one object per send.  Every send call of
the round appends one entry to each of four plain lists — :data:`SendColumns`:
sender, fan-out tuple, payload, per-copy bits — and
:class:`MessageBatch` turns those lists into numpy vectors and presents
them as a flat ``Sequence[Message]``.  Adversary omit indices address the
flat per-copy positions: a fan-out's copies sit at consecutive indices, in
recipient order, exactly where one :class:`Message` per copy would.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain
from typing import Any, NamedTuple, overload

import numpy as np

#: Flat per-message overhead charged on top of the payload, covering the
#: sender id and message framing.  One machine word keeps small control
#: messages from being counted as free.
MESSAGE_OVERHEAD_BITS = 8


def payload_bits(payload: Any) -> int:
    """Return the number of bits needed to encode ``payload``.

    Integers are charged their binary length (plus a sign bit), containers
    the sum of their elements plus a small per-element header.  The goal is a
    stable, implementation-independent accounting rule, not a wire format.
    """
    kind = type(payload)
    if kind is int:
        length = payload.bit_length()
        return (length if length else 1) + 1
    if kind is tuple or kind is list:
        total = 2
        for item in payload:
            item_kind = type(item)
            if item_kind is int:
                length = item.bit_length()
                total += (length if length else 1) + 2
            else:
                total += payload_bits(item) + 1
        return total
    if payload is None or kind is bool:
        return 1
    if kind is float:
        return 64
    if kind is str or kind is bytes or kind is bytearray:
        return 8 * len(payload) + 8
    if kind is set or kind is frozenset:
        return 2 + sum(payload_bits(item) + 1 for item in payload)
    if kind is dict:
        return 2 + sum(
            payload_bits(key) + payload_bits(value) + 1
            for key, value in payload.items()
        )
    if isinstance(payload, bool) or isinstance(payload, int):
        return payload_bits(int(payload))
    raise TypeError(
        f"cannot size payload of type {type(payload).__name__}; "
        "use ints, strings, bytes, or containers of those"
    )


class Message:
    """A single point-to-point message in one communication phase.

    Attributes
    ----------
    sender, recipient:
        Process ids in ``range(n)``.
    payload:
        Arbitrary (sizeable) protocol data; treated as immutable.
    bits:
        Size charged to the communication-bit complexity, including
        :data:`MESSAGE_OVERHEAD_BITS`.  Pass a precomputed value when the
        same payload fans out to many recipients.
    """

    __slots__ = ("sender", "recipient", "payload", "bits")

    def __init__(
        self, sender: int, recipient: int, payload: Any, bits: int = 0
    ) -> None:
        self.sender = sender
        self.recipient = recipient
        self.payload = payload
        self.bits = (
            bits if bits else payload_bits(payload) + MESSAGE_OVERHEAD_BITS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(sender={self.sender}, recipient={self.recipient}, "
            f"payload={self.payload!r}, bits={self.bits})"
        )


#: A round's traffic as the processes queued it: four parallel lists with
#: one entry per send call — sender pid, fan-out tuple (the recipients, in
#: copy order), payload, per-copy bits (overhead included).
#: :meth:`ExecutionCore.advance <repro.runtime.engine.ExecutionCore.advance>`
#: hands one such tuple to every env of the round, a TCP worker ships it,
#: and :class:`MessageBatch` is built from it.
SendColumns = tuple[list[int], list[tuple[int, ...]], list[Any], list[int]]


#: Every copy of a batch, as an index into its per-copy vectors.
ALL = slice(None)


class Record(NamedTuple):
    """One send call of a round, as :attr:`MessageBatch.records` reads it."""

    sender: int
    recipients: tuple[int, ...]
    payload: Any
    bits: int


class RecordView:
    """A batch's send calls for observers: ``len`` is O(1), and iterating
    builds one :class:`Record` per call (the engine reads the columns)."""

    __slots__ = ("_batch",)

    def __init__(self, batch: MessageBatch) -> None:
        self._batch = batch

    def __len__(self) -> int:
        return len(self._batch.senders)

    def __iter__(self) -> Iterator[Record]:
        batch = self._batch
        return map(Record, batch.senders, batch.fanouts, batch.payloads, batch.bits)


class MessageBatch(Sequence[Message]):
    """A round's outbound traffic: its send columns as contiguous vectors.

    Built from the four :data:`SendColumns` lists (kept as given:
    ``senders``, ``fanouts``, ``payloads``, ``bits``) and read as a
    ``Sequence[Message]``: ``batch[i]`` is the i-th *per-copy* message, a
    fan-out of k recipients occupying k consecutive flat indices in
    fan-out order.  Omit indices, the :class:`NetworkView` helpers and the
    :class:`Metrics` counters use these flat positions, byte-identical to
    an execution that queued one :class:`Message` per copy.

    The constructor builds the record vectors (``rec_sender``,
    ``rec_count``, ``rec_bits``) and ``copy_recipient``, with one
    ``np.fromiter`` over the chained fan-outs.  The per-copy expansions
    (``copy_sender``, ``copy_bits``, ``copy_record``: the ``payloads``
    key) and the round's one recipient sort (``recipient_order``, each
    recipient's range in ``recipient_bounds``) are derived on first use.
    Payloads are never copied or inspected.
    """

    def __init__(
        self,
        senders: Sequence[int] = (),
        fanouts: Sequence[tuple[int, ...]] = (),
        payloads: Sequence[Any] = (),
        bits: Sequence[int] = (),
    ) -> None:
        counts = list(map(len, fanouts))
        self._total = total = sum(counts)
        self.senders = senders
        self.fanouts = fanouts
        self.payloads = payloads
        self.bits = bits
        # Pids fit comfortably in int32, half the resident size of int64.
        self.rec_sender = np.array(senders, dtype=np.int32)
        self.rec_count = np.array(counts, dtype=np.int64)
        self.rec_bits = np.array(bits, dtype=np.int64)
        self.copy_recipient = np.fromiter(
            chain.from_iterable(fanouts), dtype=np.int32, count=total
        )

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
        """Record position owning each flat copy (the ``payloads`` key)."""
        return self.record_of()

    def record_of(self, order: Any = ALL) -> Any:
        """The record owning each copy of ``order`` (flat copy indices),
        in the narrowest index dtype that holds every record position."""
        count = len(self.senders)
        dtype = np.int16 if count < 1 << 15 else np.int32
        return np.repeat(np.arange(count, dtype=dtype), self.rec_count)[order]

    @cached_property
    def recipient_order(self) -> Any:
        """The round's one recipient sort: flat copy indices (int32) stably
        sorted by recipient, so each recipient's copies keep flat (sender)
        order.  The adversary's view and delivery both read it, each
        recipient's range from :attr:`recipient_bounds`."""
        keys = self.copy_recipient
        if self._total and keys.max() < 1 << 16:
            # 16-bit keys take numpy's radix sort: several times faster.
            keys = keys.astype(np.uint16)
        return np.argsort(keys, kind="stable").astype(np.int32)

    @cached_property
    def recipient_bounds(self) -> Any:
        """Where each recipient's copies sit in :attr:`recipient_order`:
        pid ``p``'s are ``recipient_order[bounds[p]:bounds[p + 1]]``
        (``bounds`` has one entry per pid up to the largest recipient,
        plus one)."""
        bounds = np.zeros(int(self.copy_recipient.max(initial=-1)) + 2, dtype=np.int64)
        np.cumsum(np.bincount(self.copy_recipient), out=bounds[1:])
        return bounds

    @property
    def records(self) -> RecordView:
        """The send calls, one :class:`Record` each, in queue order."""
        return RecordView(self)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._total

    @overload
    def __getitem__(self, index: int) -> Message: ...

    @overload
    def __getitem__(self, index: slice) -> list[Message]: ...

    def __getitem__(self, index: int | slice) -> Message | list[Message]:
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(self._total))]
        if index < 0:
            index += self._total
        if not 0 <= index < self._total:
            raise IndexError(
                f"message index {index} out of range ({self._total} copies)"
            )
        record = int(self.copy_record[index])
        return Message(
            self.senders[record],
            int(self.copy_recipient[index]),
            self.payloads[record],
            self.bits[record],
        )

    def __iter__(self) -> Iterator[Message]:
        for sender, fanout, payload, bits in zip(
            self.senders, self.fanouts, self.payloads, self.bits
        ):
            for recipient in fanout:
                yield Message(sender, recipient, payload, bits)

    def total_bits(self) -> int:
        """Sum of per-copy bits over the batch, from the record vectors."""
        return int(self.rec_bits @ self.rec_count)

    def copy_indices(
        self, senders: Iterable[int], recipients: Iterable[int]
    ) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """Flat copy indices sent by each of *senders* and addressed to
        each of *recipients*, ascending (:meth:`NetworkView._copy_indices`
        reads them).  A sender's copies are the flat ranges of its records;
        a recipient's are its slice of the round's one recipient sort."""
        senders, recipients = list(senders), list(recipients)
        sent: dict[int, list[int]] = {}
        if senders:
            ends = np.cumsum(self.rec_count)
            starts = ends - self.rec_count
            for pid in senders:
                own = self.rec_sender == pid
                sent[pid] = list(
                    chain.from_iterable(map(range, starts[own].tolist(), ends[own].tolist()))
                )
        to: dict[int, list[int]] = {}
        if recipients:
            order, bounds = self.recipient_order, self.recipient_bounds.tolist()
            last = len(bounds) - 2
            for pid in recipients:
                to[pid] = order[bounds[pid] : bounds[pid + 1]].tolist() if 0 <= pid <= last else []
        return sent, to

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MessageBatch({len(self.senders)} records, "
            f"{self._total} copies)"
        )
