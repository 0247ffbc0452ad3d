"""The TCP transport's worker process (forked by ``repro.transport.tcp``).

One worker hosts a contiguous block of consensus processes, handed to
:func:`main` as the objects the fork inherited.  It dials the
coordinator's loopback listener (with retry/backoff inside the connect
budget), authenticates with the per-run token, and then serves one
``step`` frame per round: resume every hosted live program with the
inbox the coordinator shipped — three plain lists, wrapped in a
:class:`~repro.runtime.columnar.ColumnInbox` — and reply with the queued
outbound records, newly terminated pids, current decisions, and
randomness counters.

The shard mirrors :meth:`repro.runtime.engine.ExecutionCore.advance`
exactly — same pid order, same round-0 ``next`` vs ``send`` resumption,
same outbox/inbox reset semantics — and seeds each hosted process's
:class:`~repro.runtime.randomness.CountingRandom` from the *same*
``derive_seeds(seed, n)`` table the in-process core uses, indexed by
pid.  Process randomness therefore does not depend on where a process is
hosted, which is what makes TCP executions replay byte-identically
in-process from their recorded recipes.
"""

from __future__ import annotations

import socket
import time
from collections.abc import Mapping, Sequence
from typing import Any

from ..runtime.columnar import ColumnInbox, InboxColumns
from ..runtime.messages import MessageRecord
from ..runtime.process import ProcessEnv, Program, SyncProcess
from ..runtime.randomness import CountingRandom, derive_seeds
from .base import TransportError
from .framing import recv_frame, send_frame

__all__ = ["ProcessShard", "connect_with_backoff", "main"]


class ProcessShard:
    """The hosted block of processes and their per-round advancement."""

    def __init__(
        self,
        processes: Sequence[SyncProcess],
        n: int,
        seed: int,
    ) -> None:
        # Index the full derivation table by hosted pid: randomness is a
        # function of (seed, pid), never of worker placement.
        seeds = derive_seeds(seed, n, salt="process-randomness")
        self.n = n
        self.pids = [process.pid for process in processes]
        self.sources: dict[int, CountingRandom] = {}
        self.envs: dict[int, ProcessEnv] = {}
        self.programs: dict[int, Program | None] = {}
        for process in processes:
            pid = process.pid
            source = CountingRandom(seeds[pid])
            env = ProcessEnv(pid, n, source)
            self.sources[pid] = source
            self.envs[pid] = env
            self.programs[pid] = process.program(env)

    def step(
        self,
        round_no: int,
        inboxes: Mapping[int, InboxColumns],
        reseed: int | None,
    ) -> dict[str, Any]:
        """One local-computation phase over the hosted live processes;
        ``inboxes`` holds every hosted live pid's inbox, by column."""
        if reseed is not None:
            fork_seeds = derive_seeds(reseed, self.n, salt="fork")
            for pid, source in self.sources.items():
                source.reseed(fork_seeds[pid])
        records: list[MessageRecord] = []
        terminated: list[int] = []
        for pid in self.pids:
            program = self.programs.get(pid)
            if program is None:
                continue
            env = self.envs[pid]
            env.round = round_no
            env.outbox = []
            try:
                if round_no == 0:
                    next(program)
                else:
                    program.send(ColumnInbox(pid, inboxes[pid]))
            except StopIteration:
                self.programs[pid] = None
                terminated.append(pid)
            # Messages queued before a final ``return`` are still sent —
            # identical to ExecutionCore.advance.
            records.extend(env.outbox)
        decisions = {
            pid: (env.decision, env.decision_round)
            for pid, env in self.envs.items()
            if env.has_decided
        }
        randomness = {
            pid: (source.calls, source.bits_drawn)
            for pid, source in self.sources.items()
        }
        return {
            "records": records,
            "terminated": terminated,
            "decisions": decisions,
            "randomness": randomness,
        }


def connect_with_backoff(
    host: str,
    port: int,
    *,
    timeout_s: float,
    initial_backoff_s: float = 0.05,
    max_backoff_s: float = 1.0,
) -> tuple[socket.socket, int]:
    """Dial the coordinator, retrying with exponential backoff.

    Returns ``(socket, retries)``; raises :class:`TransportError` once
    ``timeout_s`` of wall-clock has elapsed without a connection.
    """
    deadline = time.monotonic() + timeout_s
    backoff = initial_backoff_s
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
            backoff = min(backoff * 2.0, max_backoff_s)
            continue
        # The connect budget ends here: between frames a worker waits as
        # long as the coordinator takes (it owns the link deadlines).
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, retries


def main(
    processes: Sequence[SyncProcess],
    n: int,
    seed: int,
    *,
    host: str,
    port: int,
    token: str,
    worker: int,
    connect_timeout_s: float,
) -> None:
    """Serve one run: host ``processes`` (worker ``worker``'s block of an
    ``n``-process run seeded ``seed``) for the coordinator at
    ``host:port`` until it says ``fini`` or goes away."""
    shard = ProcessShard(processes, n, seed)
    sock, retries = connect_with_backoff(host, port, timeout_s=connect_timeout_s)
    try:
        send_frame(
            sock, ("hello", {"worker": worker, "token": token, "retries": retries})
        )
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
            out = shard.step(
                payload["round"], payload["inboxes"], payload["reseed"]
            )
            send_frame(sock, ("out", out))
    except (ConnectionError, BrokenPipeError):
        return  # the coordinator went away; nothing useful to report
    finally:
        sock.close()
