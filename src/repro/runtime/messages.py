"""Point-to-point messages, multicast records, and bit-size accounting.

The paper's communication complexity is measured in *bits* sent over
point-to-point channels (Section 2).  Every payload handed to
:meth:`ProcessEnv.send` is sized by :func:`payload_bits` at send time so that
benchmark numbers are directly comparable with the paper's
``O(n^2 log^3 n)``-style bounds.

``payload_bits`` is the hottest function in large simulations, so it
dispatches on exact types with the common cases (ints, tuples of ints)
first; the semantics are unchanged from the reference recursive definition.

The engine's broadcast fast path rides two further types defined here:

* :class:`Multicast` — one sender fanning a single shared payload (and a
  single precomputed ``bits`` value) out to many recipients, queued as one
  record instead of one :class:`Message` per recipient;
* :class:`MessageBatch` — a round's entire outbound traffic: the records
  the processes queued, held as contiguous numpy vectors (the *columnar*
  layout) and presented as a flat ``Sequence[Message]``.  Adversary omit
  indices address the flat per-copy positions: a multicast's copies sit at
  consecutive indices, in recipient order, exactly where one
  :class:`Message` per copy would.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from typing import Any, overload

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


class Multicast:
    """One shared payload fanned out by one sender to many recipients.

    Queued by :meth:`ProcessEnv.send_many` / :meth:`ProcessEnv.broadcast` as
    a *single* outbox record: the payload is sized once (``bits`` is the
    per-copy charge, identical to what :meth:`ProcessEnv.send` would have
    computed for each copy) and the engine expands it into per-recipient
    :class:`Message` views only where a concrete copy is needed — inbox
    delivery, trace capture, adversary inspection.

    Attributes
    ----------
    sender:
        Sending process id.
    recipients:
        Tuple of recipient pids, in fan-out order; each contributes one
        flat index to the round's :class:`MessageBatch`.
    payload:
        The shared (treated-as-immutable) protocol data.
    bits:
        Per-copy size including :data:`MESSAGE_OVERHEAD_BITS`.
    """

    __slots__ = ("sender", "recipients", "payload", "bits")

    def __init__(
        self,
        sender: int,
        recipients: Iterable[int],
        payload: Any,
        bits: int = 0,
    ) -> None:
        self.sender = sender
        self.recipients = (
            recipients if type(recipients) is tuple else tuple(recipients)
        )
        self.payload = payload
        self.bits = (
            bits if bits else payload_bits(payload) + MESSAGE_OVERHEAD_BITS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Multicast(sender={self.sender}, "
            f"recipients={self.recipients!r}, payload={self.payload!r}, "
            f"bits={self.bits})"
        )


#: An outbox entry: a point-to-point message or a multicast record.
MessageRecord = Message | Multicast


#: Fan-out tuples seen in the previous batch, keyed by tuple identity,
#: with their index array once converted.  ``ProcessEnv.broadcast`` caches
#: its fan-out tuple per process, so across rounds the same tuple objects
#: recur; a tuple seen in two consecutive batches is converted once and
#: reused while it recurs.  Each batch keeps only the tuples it used, so
#: one-off ``send_many`` tuples neither pile up nor get an array of their
#: own.  Holding the tuple keeps its ``id`` valid while it is cached.
FanoutCache = dict[int, tuple[tuple[int, ...], Any]]


class MessageBatch(Sequence[Message]):
    """A round's outbound traffic: its records as contiguous vectors.

    Wraps the ordered list of :class:`Message` / :class:`Multicast` records
    the processes queued this round and presents it as a
    ``Sequence[Message]``: ``batch[i]`` is the i-th *per-copy* message, with
    a multicast of k recipients occupying k consecutive flat indices in
    fan-out order.  Adversary omit indices, the :class:`NetworkView`
    helpers, and the :class:`Metrics` counters all use these flat
    positions, which makes them byte-identical to an execution that queued
    one :class:`Message` per copy.

    The constructor builds the per-record vectors — sender id
    (``rec_sender``), fan-out count (``rec_count``), per-copy bit size
    (``rec_bits``) — and the flat ``copy_recipient`` vector; the per-copy
    columns (``copy_sender``, ``copy_bits``, ``copy_record``) and the
    payload table (``rec_payload``) are derived on first use.  Payloads stay
    Python objects, indexed per record — never copied or inspected.  The
    adversary's view, validation, delivery and the inbox reads of one round
    all read these vectors.
    """

    def __init__(
        self,
        records: Iterable[MessageRecord] = (),
        fanout_cache: FanoutCache | None = None,
    ) -> None:
        """Vectorize ``records``.

        Recipients go into one list converted in a single array, except a
        multicast fan-out tuple that ``fanout_cache`` (see
        :data:`FanoutCache`) saw in the previous batch: it is converted
        once and its array reused.  ``fanout_cache`` is left holding this
        batch's tuples.
        """
        records = records if type(records) is list else list(records)
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
        self.records = records
        # Pids fit comfortably in int32; the narrower dtype makes the
        # per-round stable argsort in :func:`repro.runtime.delivery.deliver`
        # measurably faster at large n (and halves the resident column size).
        self.rec_sender = np.array(senders, dtype=np.int32)
        self.rec_count = np.array(counts, dtype=np.int64)
        self.rec_bits = np.array(bits, dtype=np.int64)
        self.copy_recipient = (
            chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        )
        self._total = int(self.copy_recipient.shape[0])

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
        record = self.records[int(self.copy_record[index])]
        if type(record) is Multicast:
            recipient = int(self.copy_recipient[index])
            return Message(record.sender, recipient, record.payload, record.bits)
        return record

    def __iter__(self) -> Iterator[Message]:
        for record in self.records:
            if type(record) is Multicast:
                sender = record.sender
                payload = record.payload
                bits = record.bits
                for recipient in record.recipients:
                    yield Message(sender, recipient, payload, bits)
            else:
                yield record

    def total_bits(self) -> int:
        """Sum of per-copy bits over the batch, from the record vectors."""
        return int(self.rec_bits @ self.rec_count)

    def copy_indices(
        self, senders: Iterable[int], recipients: Iterable[int]
    ) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """Flat copy indices sent by each of *senders* and addressed to
        each of *recipients*, one vectorized select per asked pid and
        side (:meth:`NetworkView._copy_indices` reads them)."""
        sent, to = self.copy_sender, self.copy_recipient
        return (
            {pid: np.flatnonzero(sent == pid).tolist() for pid in senders},
            {pid: np.flatnonzero(to == pid).tolist() for pid in recipients},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MessageBatch({len(self.records)} records, "
            f"{self._total} copies)"
        )
