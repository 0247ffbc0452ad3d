"""Synchronous message-passing substrate (Section 2 of the paper).

Public surface:

* :class:`Message`, :class:`MessageBatch`, :data:`SendColumns`,
  :func:`payload_bits` — metered point-to-point messages and the round's
  one batch: the four send columns every env of the round appends to
  (sender, fan-out tuple, payload, bits), as numpy vectors read as a flat
  ``Sequence[Message]`` by the adversary, validation and delivery;
* :class:`CountingRandom` — the counted random source;
* :class:`SyncProcess`, :class:`ProcessEnv` — generator-based processes;
* :class:`SyncNetwork`, :class:`Adversary`, :class:`AdversaryAction`,
  :class:`NetworkView`, :class:`ExecutionResult` — the engine facade and the
  adaptive full-information adversary hook;
* :class:`ExecutionCore`, :mod:`~repro.runtime.delivery` — the engine's
  two layers under :class:`SyncNetwork`'s lockstep round loop (execution;
  delivery, whose ``deliver`` returns a ``DeliveryReceipt``);
* :class:`RoundObserver`, :class:`RunReport` — the engine-driven observer
  bus and the one account of a run the engine keeps on it
  (``ExecutionResult.report``);
* :class:`Metrics` — rounds / communication bits / randomness accounting;
* :class:`ColumnInbox` — the one inbox class: a lazy ``Sequence[Message]``
  over a slice of the round's delivered columns (the receipt's
  delivered/lost lists and a TCP worker's inboxes are the same class);
* :func:`inbox_payloads`, :func:`inbox_senders` — an inbox read by column
  (no :class:`Message` built), for receive loops that only count;
* :func:`tagged`, :func:`tagged_from` — an inbox's payloads (with their
  senders) that are tuples headed by a protocol's tag: the receive rule;
* :func:`canonical_omissions` — the shared sorted/de-duplicated normal form
  of an omission schedule.
"""

from .delivery import (
    ColumnInbox,
    inbox_payloads,
    inbox_senders,
    tagged,
    tagged_from,
)
from .messages import (
    MESSAGE_OVERHEAD_BITS,
    Message,
    MessageBatch,
    SendColumns,
    payload_bits,
)
from .engine import ExecutionCore
from .metrics import Metrics
from .observers import LinkSample, RoundObserver
from .network import (
    Adversary,
    AdversaryAction,
    AdversaryContext,
    AdversaryProtocolError,
    ExecutionResult,
    LockstepError,
    NetworkView,
    SyncNetwork,
    canonical_omissions,
)
from .process import (
    ProcessEnv,
    Program,
    SyncProcess,
    idle_rounds,
)
from .serialization import (
    SCHEMA_VERSION,
    check_schema,
    metrics_to_dict,
    result_to_dict,
)
from .report import RunReport
from .randomness import (
    CountingRandom,
    derive_seeds,
)

__all__ = [
    "ColumnInbox",
    "inbox_payloads",
    "inbox_senders",
    "tagged",
    "tagged_from",
    "MESSAGE_OVERHEAD_BITS",
    "Message",
    "MessageBatch",
    "SendColumns",
    "payload_bits",
    "canonical_omissions",
    "Metrics",
    "Adversary",
    "AdversaryAction",
    "AdversaryContext",
    "AdversaryProtocolError",
    "ExecutionResult",
    "LockstepError",
    "NetworkView",
    "SyncNetwork",
    "ExecutionCore",
    "ProcessEnv",
    "Program",
    "SyncProcess",
    "idle_rounds",
    "LinkSample",
    "RoundObserver",
    "RunReport",
    "SCHEMA_VERSION",
    "check_schema",
    "metrics_to_dict",
    "result_to_dict",
    "CountingRandom",
    "derive_seeds",
]
