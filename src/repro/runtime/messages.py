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
* :class:`MessageBatch` — a round's entire outbound traffic as a flat,
  lazily-expanded ``Sequence[Message]`` over a mix of :class:`Message` and
  :class:`Multicast` records.  Adversary omit indices address the flat
  per-copy positions: a multicast's copies sit at consecutive indices,
  in recipient order, exactly where one :class:`Message` per copy would.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any, overload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from .columnar import ColumnarBatch, FanoutCache

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

    def message(self, position: int) -> Message:
        """Materialize the per-recipient view at ``position``."""
        return Message(
            self.sender, self.recipients[position], self.payload, self.bits
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Multicast(sender={self.sender}, "
            f"recipients={self.recipients!r}, payload={self.payload!r}, "
            f"bits={self.bits})"
        )


#: An outbox entry: a point-to-point message or a multicast record.
MessageRecord = Message | Multicast


class MessageBatch(Sequence[Message]):
    """A round's outbound traffic as a flat, lazily-expanded message list.

    Wraps the ordered list of :class:`Message` / :class:`Multicast` records
    the processes queued this round and presents it as a
    ``Sequence[Message]``: ``batch[i]`` is the i-th *per-copy* message, with
    a multicast of k recipients occupying k consecutive flat indices in
    fan-out order.  Adversary omit indices, the :class:`NetworkView`
    helpers, and the :class:`Metrics` counters all use these flat
    positions, which makes them byte-identical to an execution that queued
    one :class:`Message` per copy.

    Per-copy :class:`Message` views are materialized on demand
    (``__getitem__`` / iteration); ``len`` and :meth:`total_bits` answer
    from the records, and per-pid index queries from :meth:`columns`.
    """

    __slots__ = ("records", "offsets", "_total", "sender_sorted", "_columns")

    def __init__(self, records: Iterable[MessageRecord] = ()) -> None:
        records = records if type(records) is list else list(records)
        offsets: list[int] = []
        total = 0
        sender_sorted = True
        previous = -1
        for record in records:
            offsets.append(total)
            total += (
                len(record.recipients) if type(record) is Multicast else 1
            )
            sender = record.sender
            if sender < previous:
                sender_sorted = False
            previous = sender
        self.records = records
        #: Flat index of each record's first copy (parallel to ``records``).
        self.offsets = offsets
        self._total = total
        #: True when records appear in non-decreasing sender order (always
        #: the case for engine-built batches, where processes advance in pid
        #: order) — lets delivery skip the per-round sender bucketing.
        self.sender_sorted = sender_sorted
        self._columns: ColumnarBatch | None = None

    def __len__(self) -> int:
        return self._total

    @overload
    def __getitem__(self, index: int) -> Message: ...

    @overload
    def __getitem__(self, index: slice) -> list[Message]: ...

    def __getitem__(self, index: int | slice) -> Message | list[Message]:
        if isinstance(index, slice):
            return [
                self._copy_at(position)
                for position in range(*index.indices(self._total))
            ]
        if index < 0:
            index += self._total
        if not 0 <= index < self._total:
            raise IndexError(
                f"message index {index} out of range ({self._total} copies)"
            )
        return self._copy_at(index)

    def _copy_at(self, index: int) -> Message:
        position = bisect_right(self.offsets, index) - 1
        record = self.records[position]
        if type(record) is Multicast:
            return record.message(index - self.offsets[position])
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

    # ------------------------------------------------------------------
    def columns(
        self, fanout_cache: FanoutCache | None = None
    ) -> ColumnarBatch:
        """The batch as a :class:`~repro.runtime.columnar.ColumnarBatch`.

        Built on first call and cached for the batch's lifetime (a batch is
        immutable once constructed), so every reader of one round shares a
        single vectorization.
        """
        cols = self._columns
        if cols is None:
            from .columnar import ColumnarBatch

            cols = ColumnarBatch.from_records(self.records, fanout_cache)
            self._columns = cols
        return cols

    def total_bits(self) -> int:
        """Sum of per-copy bits over the whole batch, from the records."""
        total = 0
        for record in self.records:
            if type(record) is Multicast:
                total += record.bits * len(record.recipients)
            else:
                total += record.bits
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MessageBatch({len(self.records)} records, "
            f"{self._total} copies)"
        )
