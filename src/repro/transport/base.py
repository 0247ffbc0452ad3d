"""Transport abstraction: *where* an execution's processes physically run.

The engine's three layers (scheduler / delivery / execution,
:mod:`repro.runtime`) decide *when* processes advance and *how* traffic
reaches inboxes; a :class:`Transport` decides where the process programs
execute.  It is a factory for the run's
:class:`~repro.runtime.engine.ExecutionCore`:

* :class:`~repro.transport.inprocess.InProcessTransport` (the default)
  returns the plain in-interpreter core — zero overhead, today's
  behavior, byte-identical to every execution before the transport axis
  existed;
* :class:`~repro.transport.tcp.TcpTransport` returns a
  coordinator core that places the processes in real OS worker processes
  speaking length-prefixed frames over localhost TCP.

Every transport-backed core honours the same contract as the in-process
core: per-process randomness is derived from ``(seed, pid)`` regardless
of hosting location, a hosted program reads the same ``Message`` fields
in the same order as in-process (inboxes cross as columns, outboxes as
records), and transport failures surface through
:meth:`~repro.runtime.engine.ExecutionCore.drain_faults` as crash faults
the network arbitrates inside the paper's omission model — never as
hangs, and never outside the ``sent == delivered + omitted + lost``
metering identity.

Wall-clock note: ``time.monotonic`` is permitted *only* here, outside
``CLOCK_SCOPE`` of ``tests/test_determinism_census.py`` — real links need
real timeouts — and never influences protocol semantics, only fault
detection and :class:`~repro.runtime.observers.LinkSample` measurements.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import ClassVar

from ..runtime.engine import ExecutionCore
from ..runtime.process import SyncProcess

__all__ = ["Transport", "TransportError"]


class TransportError(RuntimeError):
    """Raised when a transport cannot be brought up or torn down.

    Failures *during* a run (a worker dying mid-round, a link timeout)
    do not raise this — they surface as crash faults via
    :meth:`~repro.runtime.engine.ExecutionCore.drain_faults` so the run
    completes inside the fault model.  ``TransportError`` is reserved for
    setup/teardown problems: workers that never connected, bad
    handshakes, invalid options.
    """


class Transport(ABC):
    """One process-hosting discipline (see the module docstring).

    Transports are addressed by registry name
    (:func:`repro.transport.resolve_transport`); instances are
    stateless factories and may be reused across runs.
    """

    #: Registry key; also serialized into campaign records and recipes.
    name: ClassVar[str] = "abstract"

    @abstractmethod
    def create_core(
        self,
        processes: Sequence[SyncProcess],
        *,
        seed: int,
    ) -> ExecutionCore:
        """Build the execution core hosting ``processes`` for one run."""
