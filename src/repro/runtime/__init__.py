"""Synchronous message-passing substrate (Section 2 of the paper).

Public surface:

* :class:`Message`, :class:`Multicast`, :class:`MessageBatch`,
  :func:`payload_bits` — metered point-to-point messages, shared-payload
  multicast records, and the flat per-round batch the engine and the
  adversary operate on;
* :class:`CountingRandom` — the counted random source;
* :class:`SyncProcess`, :class:`ProcessEnv` — generator-based processes;
* :class:`SyncNetwork`, :class:`Adversary`, :class:`AdversaryAction`,
  :class:`NetworkView`, :class:`ExecutionResult` — the engine facade and the
  adaptive full-information adversary hook;
* :class:`ExecutionCore`, :class:`~repro.runtime.delivery.Delivery`,
  :class:`RoundModel` — the engine's three layers (execution, delivery,
  scheduling), with
  :class:`LockstepModel` / :class:`PartialSynchronyModel` as the two
  registered timing disciplines (:func:`create_model`,
  :func:`available_models`, :func:`resolve_model`);
* :class:`RoundObserver`, :class:`RoundProfiler`, :class:`TraceRecorder` —
  the engine-driven observer bus and its built-in observers;
* :class:`Metrics` — rounds / communication bits / randomness accounting;
* :class:`ColumnarBatch`, :class:`LazyMessageList`, :data:`HAVE_NUMPY` —
  the numpy-vectorized round layout the delivery layer uses on wide
  fan-out batches;
* :func:`inbox_payloads`, :func:`inbox_senders` — an inbox read by column
  (no :class:`Message` built), for receive loops that only count;
* :func:`canonical_omissions` — the shared sorted/de-duplicated normal form
  of an omission schedule.
"""

from .columnar import (
    HAVE_NUMPY,
    ColumnarBatch,
    LazyMessageList,
    inbox_payloads,
    inbox_senders,
)
from .messages import (
    MESSAGE_OVERHEAD_BITS,
    Message,
    MessageBatch,
    MessageRecord,
    Multicast,
    payload_bits,
)
from .engine import ExecutionCore
from .metrics import Metrics
from .models import (
    LockstepModel,
    PartialSynchronyModel,
    RoundModel,
    available_models,
    create_model,
    resolve_model,
)
from .observers import (
    LinkSample,
    MetricsObserver,
    RoundObserver,
    RoundProfiler,
)
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
    receive_round,
)
from .serialization import (
    SCHEMA_VERSION,
    check_schema,
    load_result,
    metrics_from_dict,
    metrics_to_dict,
    result_from_dict,
    result_to_dict,
    save_result,
    trace_to_dict,
)
from .trace import RoundTrace, TraceRecorder, default_state_probe
from .randomness import (
    CountingRandom,
    derive_seeds,
)

__all__ = [
    "HAVE_NUMPY",
    "ColumnarBatch",
    "LazyMessageList",
    "inbox_payloads",
    "inbox_senders",
    "MESSAGE_OVERHEAD_BITS",
    "Message",
    "MessageBatch",
    "MessageRecord",
    "Multicast",
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
    "LockstepModel",
    "PartialSynchronyModel",
    "RoundModel",
    "available_models",
    "create_model",
    "resolve_model",
    "ProcessEnv",
    "Program",
    "SyncProcess",
    "idle_rounds",
    "receive_round",
    "LinkSample",
    "MetricsObserver",
    "RoundObserver",
    "RoundProfiler",
    "RoundTrace",
    "TraceRecorder",
    "default_state_probe",
    "SCHEMA_VERSION",
    "check_schema",
    "load_result",
    "metrics_from_dict",
    "metrics_to_dict",
    "result_from_dict",
    "result_to_dict",
    "save_result",
    "trace_to_dict",
    "CountingRandom",
    "derive_seeds",
]
