"""Transport registry: the engine's selectable process-hosting layers.

A :class:`Transport` decides *where* an execution's consensus processes
physically run, while the round models, delivery layer, adversary
API, observer bus, metering, and record/replay behave identically across
transports (see :mod:`repro.transport.base`).

Transports are addressed by registry name — ``"inprocess"`` (today's
single-interpreter core, the default) and ``"tcp"`` (real OS worker
processes over localhost TCP, :mod:`repro.transport.tcp`).  Like the
round-model axis there is deliberately no environment-variable default:
a real-network execution must always be an explicit request.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from ..runtime.observers import LinkSample
from .base import Transport, TransportError
from .inprocess import InProcessTransport
from .metrics import LinkMetricsObserver
from .tcp import AsyncioTcpTransport, RemoteExecutionCore

__all__ = [
    "AsyncioTcpTransport",
    "InProcessTransport",
    "LinkMetricsObserver",
    "LinkSample",
    "RemoteExecutionCore",
    "Transport",
    "TransportError",
    "available_transports",
    "create_transport",
    "default_transport_name",
    "resolve_transport",
]

_TRANSPORTS: dict[str, type[Transport]] = {
    InProcessTransport.name: InProcessTransport,
    AsyncioTcpTransport.name: AsyncioTcpTransport,
}


def available_transports() -> tuple[str, ...]:
    """Registered transport names, sorted."""
    return tuple(sorted(_TRANSPORTS))


def default_transport_name() -> str:
    """The transport used when the caller names none."""
    return InProcessTransport.name


def create_transport(
    name: str, options: Mapping[str, Any] | None = None
) -> Transport:
    """Instantiate a registered transport by name with options."""
    try:
        transport_cls = _TRANSPORTS[name]
    except KeyError:
        raise ValueError(
            f"unknown transport {name!r}; choose from: "
            f"{', '.join(available_transports())}"
        ) from None
    return transport_cls(**dict(options or {}))


def resolve_transport(
    transport: Transport | str | None = None,
    options: Mapping[str, Any] | None = None,
) -> Transport:
    """Resolve the ``transport=`` axis: instance > name > in-process.

    A ready-made :class:`Transport` instance is used as-is
    (``options`` must then be empty — the instance already carries its
    configuration).
    """
    if isinstance(transport, Transport):
        if options:
            raise ValueError(
                "transport_options only apply when the transport is given "
                "by name; configure the Transport instance directly instead"
            )
        return transport
    name = transport if transport is not None else default_transport_name()
    return create_transport(name, options)
