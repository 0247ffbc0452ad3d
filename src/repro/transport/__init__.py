"""Transport registry: the engine's selectable process-hosting layers.

A :class:`Transport` decides *where* an execution's consensus processes
physically run, while the round loop, delivery layer, adversary
API, observer bus, metering, and record/replay behave identically across
transports (see :mod:`repro.transport.base`).

Transports are addressed by registry name — ``"inprocess"`` (today's
single-interpreter core, the default) and ``"tcp"`` (real OS worker
processes over localhost TCP, :mod:`repro.transport.tcp`).  There is
deliberately no environment-variable default: a real-network execution
must always be an explicit request.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from typing import Any

from ..runtime.observers import LinkSample
from .base import Transport, TransportError
from .inprocess import InProcessTransport
from .tcp import RemoteExecutionCore, TcpTransport

__all__ = [
    "InProcessTransport",
    "LinkSample",
    "RemoteExecutionCore",
    "TcpTransport",
    "Transport",
    "TransportError",
    "available_transports",
    "create_transport",
    "resolve_transport",
]

_TRANSPORTS: dict[str, type[Transport]] = {
    InProcessTransport.name: InProcessTransport,
    TcpTransport.name: TcpTransport,
}


# The transport used when the caller names none.  Not configurable.
_DEFAULT_TRANSPORT = InProcessTransport.name


def available_transports() -> tuple[str, ...]:
    """Registered transport names, sorted."""
    return tuple(sorted(_TRANSPORTS))


def create_transport(
    name: str, options: Mapping[str, Any] | None = None
) -> Transport:
    """Instantiate a registered transport by name with options.

    An unknown name, or an option the constructor does not take, is a
    ``ValueError`` naming the key, wherever the pair came from (a call, a
    recipe, a campaign spec).
    """
    try:
        cls = _TRANSPORTS[name]
    except KeyError:
        raise ValueError(
            f"unknown transport {name!r}; choose from: "
            f"{', '.join(sorted(_TRANSPORTS))}"
        ) from None
    try:
        return cls(**dict(options or {}))
    except TypeError:
        accepted = inspect.signature(cls).parameters
        unknown = sorted(set(options or {}) - set(accepted))
        if not unknown:
            raise
        raise ValueError(
            f"transport {name!r} takes no option {unknown[0]!r}; choose "
            f"from: {', '.join(accepted) or '(none)'}"
        ) from None


def resolve_transport(
    transport: Transport | str | None = None,
    options: Mapping[str, Any] | None = None,
) -> Transport:
    """Resolve the ``transport=`` axis: instance > name > in-process.

    ``options`` configure a transport given by name; with ``None`` or a
    ready-made :class:`Transport` instance (used as-is) they must be
    empty.
    """
    if isinstance(transport, str):
        return create_transport(transport, options)
    if options:
        raise ValueError(
            "transport_options requires an explicit transport name, got "
            f"transport={transport!r}"
        )
    if transport is not None:
        return transport
    return create_transport(_DEFAULT_TRANSPORT)
