"""The transport axis: *where* an execution's processes physically run.

The round loop, delivery layer, adversary API, observer bus, metering
and record/replay behave identically on every transport; the transport
only decides where the process programs execute.  It is a name:

* ``None`` (the default) or ``"inprocess"`` — the plain in-interpreter
  :class:`~repro.runtime.engine.ExecutionCore`, zero overhead;
* ``"tcp"`` — :class:`~repro.transport.tcp.RemoteExecutionCore`, forked
  worker OS processes speaking length-prefixed frames over localhost TCP;
  its one option is ``processes_per_worker``
  (:func:`~repro.transport.tcp.tcp_settings`).

There is deliberately no environment-variable default: a real-network
execution must always be an explicit request.

A TCP worker runs the in-process core's own loop over its pid block (one
loop, one ``(seed, pid)`` seed table), its programs read inboxes that
cross as columns, field for field what the delivery layer wrote, and the
hosted process state crosses back whenever the run has a reader.
Transport failures surface through
:meth:`~repro.runtime.engine.ExecutionCore.drain_faults` as crash faults
the network arbitrates inside the paper's omission model — never as
hangs, and never outside the ``sent == delivered + omitted + lost``
metering identity.

Wall-clock note: ``time.monotonic`` is permitted *only* in this package,
outside ``CLOCK_SCOPE`` of ``tests/test_determinism_census.py``, and never
influences protocol semantics, only fault detection and
:class:`~repro.runtime.observers.LinkSample` measurements.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from ..runtime.engine import ExecutionCore
from ..runtime.observers import LinkSample
from ..runtime.process import SyncProcess
from .framing import TransportError
from .tcp import RemoteExecutionCore, tcp_settings

__all__ = [
    "LinkSample",
    "RemoteExecutionCore",
    "TransportError",
    "available_transports",
    "check_transport",
    "create_core",
]


def available_transports() -> tuple[str, ...]:
    """Transport names, sorted."""
    return ("inprocess", "tcp")


def check_transport(
    name: str | None, options: Mapping[str, Any] | None = None
) -> None:
    """Validate one ``(transport, transport_options)`` pair.

    An unknown name (a live object included), options without a name,
    and an option the named transport does not take each raise a
    ``ValueError`` naming the key, wherever the pair came from (a call, a
    recipe, a campaign spec); so does a bad TCP option value.
    """
    if name == "tcp":
        tcp_settings(options)
    elif name not in (None, "inprocess"):
        raise ValueError(
            f"unknown transport {name!r}; choose from: "
            f"{', '.join(available_transports())}"
        )
    elif options and name is None:
        raise ValueError(
            "transport_options requires an explicit transport name, got "
            "transport=None"
        )
    elif options:
        raise ValueError(
            f"transport 'inprocess' takes no option {sorted(options)[0]!r}; "
            "choose from: (none)"
        )


def create_core(
    processes: Sequence[SyncProcess],
    *,
    seed: int,
    transport: str | None = None,
    transport_options: Mapping[str, Any] | None = None,
    mirror: bool = False,
) -> ExecutionCore:
    """The execution core that hosts *processes* for one run.

    ``mirror`` says the run has a mid-run reader of process state (an
    adversary or an observer): a TCP core then ships every live hosted
    process's attributes back each round, not only the terminated ones.
    """
    if transport == "tcp":
        return RemoteExecutionCore(
            processes, seed=seed, options=transport_options, mirror=mirror
        )
    check_transport(transport, transport_options)
    return ExecutionCore(processes, seed=seed)
