"""The TCP transport: real OS processes over localhost frames.

``TcpTransport`` places an execution's consensus processes in
real worker OS processes, each hosting a contiguous pid block, all
dialing a loopback listener owned by the coordinator.  A worker is a
``fork`` of the coordinator (its direct child, reaped by :meth:`close`)
running :func:`repro.transport.worker.main`: it already holds the
engine and its block's process objects, so nothing is imported or
shipped before its hello.  The coordinator is a
:class:`~repro.runtime.engine.ExecutionCore` subclass
(:class:`RemoteExecutionCore`) so the whole engine — round models,
delivery layer, adversary arbitration, observers, record/replay —
drives it unchanged:

* :meth:`RemoteExecutionCore.advance` is a blocking fan-out: it sends
  one ``step`` frame to every live worker (a worker computes while the
  later frames are still being pickled), each carrying the hosted pids'
  inboxes *by column* — senders, payloads and bits as three plain lists
  (:func:`~repro.runtime.columnar.inbox_columns`), never ``Message``
  objects — then reads the replies as ``select`` reports them, each
  against its own link deadline; blocks are contiguous and workers
  advance pids in ascending order, so the batch concatenated in link
  order keeps the engine's sender-sorted invariant.
* Per-link timeouts and dead connections surface as *crash faults*
  via :meth:`drain_faults` — the network folds them into the round's
  corruptions and omits their in-flight copies, preserving
  ``sent == delivered + omitted + lost + Δin-flight`` instead of hanging.
* Every round-trip is measured into a
  :class:`~repro.runtime.observers.LinkSample` (drained per round for
  the ``on_transport`` observer hook).

Determinism: per-process randomness is seeded from the same
``derive_seeds(seed, n)`` table as the in-process core (indexed by pid
inside each worker), and the worker's
:class:`~repro.runtime.columnar.ColumnInbox` over the shipped columns
reads — by column or as ``Message`` objects — field for field what the
delivery layer put in the coordinator's slot — so a fault-free TCP execution is
fingerprint-identical to the in-process one, and its recorded recipe
replays in-process deterministically.  Runs where the transport itself
faulted replay the *recorded schedule* (the faults became recorded
corruptions/omissions) but are not promised fingerprint-identical: the
dead processes' unsent traffic never entered the record.

This module is inside the REP002 wall-clock carve-out
(``src/repro/transport/`` only): ``time.monotonic`` is used for
timeouts and latency measurement, never for protocol decisions.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import socket
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from ..runtime.columnar import InboxColumns, inbox_columns
from ..runtime.engine import ExecutionCore
from ..runtime.messages import MessageBatch, MessageRecord
from ..runtime.observers import LinkSample
from ..runtime.process import SyncProcess
from . import worker
from .base import Transport, TransportError
from .framing import FramingError, encode_frame, recv_frame

__all__ = ["RemoteExecutionCore", "TcpTransport"]

#: Exceptions that mean "this link is gone" rather than "this run is
#: broken": the step that hit one crash-faults the link's processes.
#: (``OSError`` covers ``TimeoutError``, ``ConnectionError`` and
#: ``BrokenPipeError``.)
_LINK_FAILURES = (FramingError, OSError)


class TcpTransport(Transport):
    """Consensus processes as real OS processes over localhost TCP.

    Parameters
    ----------
    processes_per_worker:
        How many consensus processes each worker OS process hosts
        (contiguous pid blocks).  ``None`` — the default — is one worker
        per core this process may run on, ``ceil(n / cores)`` resolved
        when :meth:`create_core` builds the run's core.  ``1`` is one OS
        process per consensus process (n workers to fork).
    host:
        Loopback interface to listen on.  Non-loopback hosts are
        rejected: frames are pickled and must never leave the machine.
    connect_timeout_s:
        Wall-clock budget for all workers to dial in at setup
        (workers retry with exponential backoff inside this budget).
    link_timeout_s:
        Per-link budget for one step round-trip (send + compute +
        reply).  A link that exceeds it is crash-faulted and its
        processes' in-flight copies become omissions.
    """

    name = "tcp"

    def __init__(
        self,
        *,
        processes_per_worker: int | None = None,
        host: str = "127.0.0.1",
        connect_timeout_s: float = 20.0,
        link_timeout_s: float = 30.0,
    ) -> None:
        if processes_per_worker is not None and processes_per_worker < 1:
            raise ValueError(
                f"processes_per_worker={processes_per_worker} must be >= 1"
            )
        if not (host == "localhost" or host.startswith("127.")):
            raise ValueError(
                f"host={host!r} is not a loopback address; the TCP "
                "transport speaks pickle frames and must stay on-machine"
            )
        if connect_timeout_s <= 0:
            raise ValueError(
                f"connect_timeout_s={connect_timeout_s} must be > 0"
            )
        if link_timeout_s <= 0:
            raise ValueError(f"link_timeout_s={link_timeout_s} must be > 0")
        self.processes_per_worker = processes_per_worker
        self.host = host
        self.connect_timeout_s = connect_timeout_s
        self.link_timeout_s = link_timeout_s

    def options_payload(self) -> dict[str, Any]:
        return {
            "processes_per_worker": self.processes_per_worker,
            "host": self.host,
            "connect_timeout_s": self.connect_timeout_s,
            "link_timeout_s": self.link_timeout_s,
        }

    def create_core(
        self,
        processes: Sequence[SyncProcess],
        *,
        seed: int,
    ) -> ExecutionCore:
        return RemoteExecutionCore(processes, seed=seed, transport=self)


@dataclass(slots=True)
class _WorkerLink:
    """Coordinator-side state of one worker connection."""

    index: int
    pids: tuple[int, ...]
    process: multiprocessing.process.BaseProcess | None = None
    sock: socket.socket | None = None
    alive: bool = True


def _until(deadline: float) -> float:
    """Seconds left to ``deadline`` as a socket timeout (never 0, which
    would mean non-blocking)."""
    return max(deadline - time.monotonic(), 1e-3)


class RemoteExecutionCore(ExecutionCore):
    """ExecutionCore whose local-computation phase runs in OS workers.

    The base-class containers become coordinator-side mirrors: ``envs``
    hold decisions/termination synced from worker replies, ``sources``
    mirror the workers' randomness counters, ``programs`` track liveness
    (the mirror generators are never advanced), and ``inboxes`` are the
    slots the delivery layer writes into — their contents ship to the
    owning worker on the next step.  Everything the network and the
    result assembly read (``live_count``, ``current_decisions``,
    ``build_result``, …) therefore works unchanged from the base class.
    """

    __slots__ = (
        "_transport",
        "_links",
        "_server",
        "_token",
        "_faults",
        "_samples",
        "_pending_reseed",
        "_closed",
    )

    def __init__(
        self,
        processes: Sequence[SyncProcess],
        *,
        seed: int,
        transport: TcpTransport,
    ) -> None:
        super().__init__(processes, seed=seed)
        self._transport = transport
        self._faults: set[int] = set()
        self._samples: list[LinkSample] = []
        self._pending_reseed: int | None = None
        self._closed = False
        self._server: socket.socket | None = None
        self._token = os.urandom(16).hex()
        # The computed default: one worker per core this process may use.
        per_worker = transport.processes_per_worker or -(
            -self.n // len(os.sched_getaffinity(0))
        )
        self._links = [
            _WorkerLink(index, tuple(range(start, min(start + per_worker, self.n))))
            for index, start in enumerate(range(0, self.n, per_worker))
        ]
        try:
            self._start()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Setup / teardown
    def _start(self) -> None:
        transport = self._transport
        self._server = server = socket.create_server((transport.host, 0))
        port = int(server.getsockname()[1])

        started = time.monotonic()
        # Every worker is forked before the first accept, so a child holds
        # no other link's socket; each drops the listener it inherits.
        fork = multiprocessing.get_context("fork")
        for link in self._links:
            process = fork.Process(
                target=self._serve, args=(link.index, port), daemon=True
            )
            process.start()
            link.process = process

        deadline = started + transport.connect_timeout_s
        waiting = {link.index for link in self._links}
        while waiting:
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"workers {sorted(waiting)} did not connect within "
                    f"{transport.connect_timeout_s:.1f}s"
                )
            for index in sorted(waiting):
                process = self._links[index].process
                assert process is not None
                if process.exitcode is not None:
                    # Dead on arrival (its block failed to start): it will
                    # never dial in, so do not wait out the deadline.
                    raise TransportError(
                        f"worker {index} exited with code "
                        f"{process.exitcode} before connecting"
                    )
            # Wake at least every 0.25 s to poll the workers above.
            server.settimeout(min(_until(deadline), 0.25))
            try:
                sock, _ = server.accept()
            except OSError:  # a timeout included
                continue
            hello, received = None, 0
            try:
                sock.settimeout(_until(deadline))
                hello, received = recv_frame(sock)
            except _LINK_FAILURES:
                pass
            if not (
                isinstance(hello, tuple)
                and len(hello) == 2
                and hello[0] == "hello"
                and isinstance(hello[1], dict)
                and hello[1].get("token") == self._token
                and hello[1].get("worker") in waiting
            ):
                # Wrong token or malformed hello: drop the connection and
                # keep waiting for the real workers within the deadline.
                sock.close()
                continue
            index = int(hello[1]["worker"])
            waiting.discard(index)
            link = self._links[index]
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            link.sock = sock
            self._samples.append(
                LinkSample(
                    worker=index,
                    pids=link.pids,
                    round=-1,
                    latency_s=time.monotonic() - started,
                    bytes_sent=0,
                    bytes_received=received,
                    retries=int(hello[1].get("retries", 0)),
                )
            )

    def _serve(self, index: int, port: int) -> None:
        """A forked worker's whole life: its block's processes are already
        in memory, so it drops the coordinator's listener and serves them."""
        assert self._server is not None
        self._server.close()
        transport = self._transport
        worker.main(
            [self.processes[pid] for pid in self._links[index].pids],
            self.n,
            self.seed,
            host=transport.host,
            port=port,
            token=self._token,
            worker=index,
            connect_timeout_s=transport.connect_timeout_s,
        )

    def close(self) -> None:
        """Graceful shutdown: fini frames, closed sockets, reaped workers.

        Idempotent; called by ``SyncNetwork.run`` in a ``finally`` block
        so worker processes never outlive their run, even on errors.  A
        worker that cannot be told to finish — its link failed, or it
        never dialed in — is killed, not waited for.
        """
        if self._closed:
            return
        self._closed = True
        fini = encode_frame(("fini", {}))
        for link in self._links:
            told = False
            if link.sock is not None:
                if link.alive:
                    try:
                        link.sock.settimeout(1.0)
                        link.sock.sendall(fini)
                        told = True
                    except OSError:
                        pass
                link.sock.close()
            if link.process is not None and not told:
                link.process.kill()
        if self._server is not None:
            self._server.close()
        for link in self._links:
            process = link.process
            if process is None:
                continue
            process.join(timeout=2.0)
            if process.exitcode is None:
                process.kill()
                process.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Per-round execution
    def advance(self, round_no: int) -> MessageBatch:
        reseed = self._pending_reseed
        self._pending_reseed = None
        timeout = self._transport.link_timeout_s
        # socket -> (link index, send time, frame bytes) of the replies
        # awaited; insertion is in link order, so the first entry holds
        # the earliest deadline.
        waiting: dict[socket.socket, tuple[int, float, int]] = {}
        # link index -> (latency, bytes sent, reply or None, bytes received)
        done: dict[int, tuple[float, int, Any, int]] = {}
        for link in self._links:
            if not link.alive:
                continue
            inbox_map: dict[int, InboxColumns] = {}
            for pid in link.pids:
                if self.programs[pid] is not None:
                    # Columns, not Message objects, cross the wire: a lazy
                    # view of a columnar round is gathered, never built.
                    inbox_map[pid] = inbox_columns(self.inboxes[pid])
                    self.inboxes[pid] = []
            if not inbox_map:
                continue
            sock = link.sock
            assert sock is not None
            data = encode_frame(
                ("step", {"round": round_no, "reseed": reseed, "inboxes": inbox_map})
            )
            started = time.monotonic()
            try:
                sock.settimeout(timeout)
                sock.sendall(data)
            except OSError:
                done[link.index] = (time.monotonic() - started, len(data), None, 0)
            else:
                waiting[sock] = (link.index, started, len(data))

        while waiting:
            earliest = next(iter(waiting.values()))[1] + timeout
            ready = select.select(
                list(waiting), [], [], max(earliest - time.monotonic(), 0.0)
            )[0]
            if not ready:
                now = time.monotonic()
                ready = [
                    sock
                    for sock, (_, started, _) in waiting.items()
                    if started + timeout <= now
                ]
            for sock in ready:
                index, started, sent = waiting.pop(sock)
                reply, received = None, 0
                try:
                    # A link already past its deadline gets a last 1 ms.
                    sock.settimeout(_until(started + timeout))
                    reply, received = recv_frame(sock)
                except _LINK_FAILURES:
                    pass
                done[index] = (time.monotonic() - started, sent, reply, received)

        records: list[MessageRecord] = []
        # Contiguous ascending pid blocks advanced in ascending pid order
        # inside each worker: concatenation in link order keeps the
        # batch's sender-sorted invariant.
        for index, (latency, sent, reply, received) in sorted(done.items()):
            link = self._links[index]
            # A timeout, a dead connection and a malformed reply are one
            # outcome: no "out" frame, so the link failed this round.
            ok = isinstance(reply, tuple) and len(reply) == 2 and reply[0] == "out"
            self._samples.append(
                LinkSample(
                    worker=index,
                    pids=link.pids,
                    round=round_no,
                    latency_s=latency,
                    bytes_sent=sent,
                    bytes_received=received,
                    ok=ok,
                )
            )
            if not ok:
                self._fail_link(link)
                continue
            out = reply[1]
            for pid in out["terminated"]:
                self.programs[pid] = None
            for pid, (value, decided_round) in out["decisions"].items():
                env = self.envs[pid]
                env.decision = value
                env.has_decided = True
                env.decision_round = decided_round
            for pid, (calls, bits_drawn) in out["randomness"].items():
                source = self.sources[pid]
                source.calls = calls
                source.bits_drawn = bits_drawn
            records.extend(out["records"])
        return MessageBatch(records)

    def _fail_link(self, link: _WorkerLink) -> None:
        """Crash-fault a link: its live pids become transport faults."""
        link.alive = False
        for pid in link.pids:
            if self.programs[pid] is not None:
                self.programs[pid] = None
                self._faults.add(pid)
        if link.sock is not None:
            link.sock.close()
        process = link.process
        if process is not None and process.exitcode is None:
            process.kill()

    # ------------------------------------------------------------------
    # Transport surface consumed by SyncNetwork
    def reseed(self, fork_seed: int) -> None:
        # Applied by each worker before its next local-computation phase —
        # the same reseed-before-advance point as the in-process core
        # (maybe_reseed precedes advance in every round model).
        self._pending_reseed = fork_seed

    def drain_faults(self) -> frozenset[int]:
        faults = frozenset(self._faults)
        self._faults.clear()
        return faults

    def drain_link_samples(self) -> tuple[LinkSample, ...]:
        samples = tuple(self._samples)
        self._samples.clear()
        return samples
