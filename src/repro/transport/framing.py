"""Length-prefixed pickle frames for the localhost TCP transport.

One frame is a 4-byte big-endian unsigned length followed by a pickled
payload.  The same encoding is used in both directions, on blocking
sockets at both ends (the coordinator bounds each call with a socket
timeout), so the wire format lives in exactly one module.  The payloads
are the endpoints' business: step frames carry each hosted inbox as
``(senders, payloads, bits)`` lists, where pickle's memo writes a payload
object once per frame however many copies share it; replies carry outbox
records.

Pickle is acceptable here because frames never leave the machine: the
coordinator listens on loopback only, and every connection must present
the per-run random token before any frame is processed (see
``repro.transport.tcp`` / ``repro.transport.worker``).  Do not reuse
this framing for non-loopback endpoints.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any

__all__ = [
    "MAX_FRAME_BYTES",
    "FramingError",
    "TransportError",
    "decode_body",
    "encode_frame",
    "recv_frame",
    "send_frame",
]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame's body; a corrupted length prefix must not
#: make a reader try to allocate gigabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FramingError(RuntimeError):
    """Raised on malformed frames (oversized length, bad payload)."""


class TransportError(RuntimeError):
    """Raised when a transport cannot be brought up or torn down.

    Failures *during* a run (a worker dying mid-round, a link timeout)
    do not raise this — they surface as crash faults via
    :meth:`~repro.runtime.engine.ExecutionCore.drain_faults` so the run
    completes inside the fault model.  ``TransportError`` is reserved for
    setup/teardown problems: workers that never connected, bad
    handshakes.
    """


def encode_frame(payload: Any) -> bytes:
    """Serialize ``payload`` into one length-prefixed frame."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Any:
    """Deserialize one frame body (the bytes after the length prefix)."""
    try:
        return pickle.loads(body)
    except Exception as error:  # pickle raises a zoo of subclasses
        raise FramingError(f"undecodable frame body: {error}") from error


def send_frame(sock: socket.socket, payload: Any) -> int:
    """Write one frame to a blocking socket; returns bytes sent."""
    data = encode_frame(payload)
    sock.sendall(data)
    return len(data)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.extend(chunk)
    return bytes(chunks)


def recv_frame(sock: socket.socket) -> tuple[Any, int]:
    """Read one frame from a blocking socket.

    Returns ``(payload, total_bytes_read)``; raises ``ConnectionError``
    on a peer that closed mid-frame and :class:`FramingError` on a
    malformed frame.
    """
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame length prefix {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    body = _recv_exact(sock, length)
    return decode_body(body), _HEADER.size + length
