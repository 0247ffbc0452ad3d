"""The TCP transport's worker process (forked by ``repro.transport.tcp``).

A worker is a ``fork`` of the coordinator, so it already holds the
coordinator's :class:`~repro.transport.tcp.RemoteExecutionCore`: its
processes, programs, environments and counted random sources.
:func:`main` dials the loopback listener (retrying with backoff inside
the connect budget), authenticates with the per-run token, and serves one
``step`` frame per round: it wraps each shipped inbox (three plain lists)
in a :class:`~repro.runtime.delivery.ColumnInbox`, runs the core's own
loop (:meth:`ExecutionCore.advance
<repro.runtime.engine.ExecutionCore.advance>`) over its pid block, and
replies with the round's four send columns, newly terminated pids, decisions,
randomness counters and hosted process attributes.  One loop and one
seed table serve both transports, which is what makes a TCP execution
replay byte-identically in-process from its recorded recipe.
"""

from __future__ import annotations

import socket
import time

from ..runtime.delivery import ColumnInbox, CopyColumns
from ..runtime.engine import ExecutionCore
from . import tcp  # a cycle: tcp forks this module's main; read at call time
from .framing import TransportError, recv_frame, send_frame

__all__ = ["connect_with_backoff", "main"]


def connect_with_backoff(host: str, port: int, *, timeout_s: float) -> tuple[socket.socket, int]:
    """Dial the coordinator, retrying with exponential backoff.

    Returns ``(socket, retries)``; raises :class:`TransportError` once
    ``timeout_s`` of wall-clock has elapsed without a connection.
    """
    deadline = time.monotonic() + timeout_s
    backoff = 0.05
    retries = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout_s)
        except OSError as error:
            if time.monotonic() + backoff > deadline:
                raise TransportError(
                    f"could not reach coordinator at {host}:{port} within "
                    f"{timeout_s:.1f}s ({retries} retries): {error}"
                ) from error
            time.sleep(backoff)
            retries += 1
            backoff = min(backoff * 2.0, 1.0)
            continue
        # The connect budget ends here: between frames a worker waits as
        # long as the coordinator takes (it owns the link deadlines).
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, retries


def main(core: tcp.RemoteExecutionCore, index: int, port: int) -> None:
    """Serve one run: host link ``index``'s pid block of ``core`` for the
    coordinator listening on ``port`` until it says ``fini`` or goes
    away."""
    block = core._links[index].pids
    sock, retries = connect_with_backoff(tcp.HOST, port, timeout_s=tcp.CONNECT_TIMEOUT_S)
    try:
        send_frame(sock, ("hello", {"worker": index, "token": core._token, "retries": retries}))
        while True:
            frame, _ = recv_frame(sock)
            if not (isinstance(frame, tuple) and len(frame) == 2):
                raise TransportError(f"malformed frame: {frame!r}")
            kind, payload = frame
            if kind == "fini":
                send_frame(sock, ("bye", {}))
                return
            if kind != "step":
                raise TransportError(f"expected step frame, got {kind!r}")
            # Every hosted live pid has an inbox, in ascending pid order.
            live = list(payload["inboxes"])
            for pid, (senders, payloads, bits) in payload["inboxes"].items():
                core.inboxes[pid] = ColumnInbox(
                    CopyColumns.of(senders, [pid] * len(senders), payloads, bits)
                )
            columns = ExecutionCore.advance(core, payload["round"], live)
            terminated = [pid for pid in live if core.programs[pid] is None]
            envs, sources, shipped = core.envs, core.sources, live if core._mirror else terminated
            send_frame(sock, ("out", {
                "columns": columns,
                "terminated": terminated,
                "decisions": {
                    p: (envs[p].decision, envs[p].decision_round) for p in block if envs[p].has_decided
                },
                "randomness": {p: (sources[p].calls, sources[p].bits_drawn) for p in block},
                "state": {p: vars(core.processes[p]) for p in shipped},
            }))
    except (ConnectionError, BrokenPipeError):
        return  # the coordinator went away; nothing useful to report
    finally:
        sock.close()
