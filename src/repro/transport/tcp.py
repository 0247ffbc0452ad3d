"""The TCP transport: real OS processes over localhost frames.

``transport="tcp"`` places an execution's consensus processes in worker
OS processes, each hosting a contiguous pid block, all dialing a loopback
listener owned by the coordinator.  The coordinator is an
:class:`~repro.runtime.engine.ExecutionCore` subclass
(:class:`RemoteExecutionCore`), so the whole engine — round loop,
delivery layer, adversary arbitration, observers, record/replay — drives
it unchanged.  A worker is a ``fork`` of the coordinator (its direct
child, reaped by :meth:`close`) taken after the core was built: it runs
that core's own loop over its block (:func:`repro.transport.worker.main`),
so one loop and one seed table serve both transports.

* :meth:`RemoteExecutionCore.advance` is a blocking fan-out: one ``step``
  frame per live worker carries its pids' inboxes *by column*
  (:func:`~repro.runtime.delivery.inbox_columns`), and the replies are
  read as ``select`` reports them, each against its own link deadline.
  Blocks are contiguous and advanced in ascending pid order, so the
  send columns concatenated in link order keep the engine's sender-sorted
  invariant.
* A reply carries the four send columns, terminations, decisions, randomness
  counters and hosted process attributes, so the coordinator's process
  objects are the hosted ones for every reader (see
  :class:`RemoteExecutionCore`).
* Per-link timeouts and dead connections surface as *crash faults* via
  :meth:`drain_faults`: the network folds them into the round's
  corruptions and omits their copies, preserving
  ``sent == delivered + omitted + lost`` instead of hanging.
* Every round-trip is measured into a
  :class:`~repro.runtime.observers.LinkSample` (``on_transport``).

A fault-free TCP execution is therefore fingerprint-identical to the
in-process one, and its recorded recipe replays in-process.  Runs where
the transport itself faulted replay the *recorded schedule* but are not
promised fingerprint-identical: the dead processes' unsent traffic never
entered the record.

``transport/`` is outside ``CLOCK_SCOPE`` (tests/test_determinism_census.py):
``time.monotonic`` is used for timeouts and latency measurement, never
for protocol decisions.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import socket
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..runtime.delivery import InboxColumns, inbox_columns
from ..runtime.engine import ExecutionCore
from ..runtime.messages import SendColumns
from ..runtime.observers import LinkSample
from ..runtime.process import SyncProcess
from . import worker
from .framing import FramingError, TransportError, encode_frame, recv_frame

__all__ = [
    "CONNECT_TIMEOUT_S", "HOST", "LINK_TIMEOUT_S", "RemoteExecutionCore", "tcp_settings",
]

#: Exceptions that mean "this link is gone" rather than "this run is
#: broken": the step that hit one crash-faults the link's processes.
#: (``OSError`` covers ``TimeoutError``, ``ConnectionError`` and
#: ``BrokenPipeError``.)
_LINK_FAILURES = (FramingError, OSError)


#: The loopback interface the coordinator listens on: frames are
#: pickled and must never leave the machine.
HOST = "127.0.0.1"
#: The budget for every worker to dial in at setup (workers retry with
#: backoff inside it).
CONNECT_TIMEOUT_S = 20.0
#: The per-link budget for one step round-trip: a link that exceeds it is
#: crash-faulted and its processes' in-flight copies become omissions.
LINK_TIMEOUT_S = 30.0


def tcp_settings(options: Mapping[str, Any] | None = None) -> int | None:
    """The transport's one option, validated: ``processes_per_worker``.

    It is how many consensus processes each worker OS process hosts
    (contiguous pid blocks): an ``int >= 1`` (not a ``bool``), or ``None``
    — one worker per core this process may run on, ``ceil(n / cores)``
    resolved when the core is built.  Any other option, and any other
    value, raise ``ValueError`` naming the key.
    """
    unknown = sorted(set(options or {}) - {"processes_per_worker"})
    if unknown:
        raise ValueError(
            f"transport 'tcp' takes no option {unknown[0]!r}; choose "
            "from: processes_per_worker"
        )
    per_worker = (options or {}).get("processes_per_worker")
    if per_worker is not None and (type(per_worker) is not int or per_worker < 1):
        raise ValueError(f"processes_per_worker={per_worker!r} must be an int >= 1")
    return per_worker


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

    The base-class containers become coordinator-side mirrors of the
    workers' (forked) ones: ``envs`` hold the decisions, ``sources`` the
    randomness counters, ``programs`` liveness (never advanced here), and
    ``processes`` the attributes of every process that terminated and,
    with ``mirror`` (the run has a mid-run reader: an adversary or an
    observer), of every live one, each round.  ``inboxes`` are the slots
    the delivery layer writes into; they ship to the owning worker on
    the next step.  Everything the network, the adversary and the result
    assembly read therefore works unchanged from the base class.
    """

    __slots__ = (
        "_mirror",
        "_links",
        "_server",
        "_token",
        "_faults",
        "_samples",
        "_closed",
    )

    def __init__(
        self,
        processes: Sequence[SyncProcess],
        *,
        seed: int,
        options: Mapping[str, Any] | None = None,
        mirror: bool = False,
    ) -> None:
        per_worker = tcp_settings(options)
        super().__init__(processes, seed=seed)
        self._mirror = mirror
        self._faults: set[int] = set()
        self._samples: list[LinkSample] = []
        self._closed = False
        self._server: socket.socket | None = None
        self._token = os.urandom(16).hex()
        # The computed default: one worker per core this process may use.
        per_worker = per_worker or -(-self.n // len(os.sched_getaffinity(0)))
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
        self._server = server = socket.create_server((HOST, 0))
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

        deadline = started + CONNECT_TIMEOUT_S
        waiting = {link.index for link in self._links}
        while waiting:
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"workers {sorted(waiting)} did not connect within "
                    f"{CONNECT_TIMEOUT_S:.1f}s"
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
        """A forked worker's whole life: this core, its programs included,
        is already in memory, so it drops the coordinator's listener and
        runs the core's own loop over link ``index``'s block."""
        assert self._server is not None
        self._server.close()
        worker.main(self, index, port)

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
    def advance(self, round_no: int, pids: Iterable[int] | None = None) -> SendColumns:
        # A worker runs the base class's loop over its block (``pids``).
        assert pids is None, "the coordinator advances every live pid"
        timeout = LINK_TIMEOUT_S
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
            data = encode_frame(("step", {"round": round_no, "inboxes": inbox_map}))
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

        columns: SendColumns = ([], [], [], [])
        # Contiguous ascending pid blocks advanced in ascending pid order
        # inside each worker: concatenation in link order keeps the
        # columns' sender-sorted invariant.
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
                self.terminate(pid)
            for pid, (value, decided_round) in out["decisions"].items():
                env = self.envs[pid]
                env.decision = value
                env.has_decided = True
                env.decision_round = decided_round
            for pid, (calls, bits_drawn) in out["randomness"].items():
                source = self.sources[pid]
                source.calls = calls
                source.bits_drawn = bits_drawn
            for pid, state in out["state"].items():
                vars(self.processes[pid]).update(state)
            senders, fanouts, payloads, bits = out["columns"]
            columns[0].extend(senders)
            columns[1].extend(fanouts)
            columns[2].extend(payloads)
            columns[3].extend(bits)
        return columns

    def _fail_link(self, link: _WorkerLink) -> None:
        """Crash-fault a link: its live pids become transport faults."""
        link.alive = False
        for pid in link.pids:
            if self.programs[pid] is not None:
                self.terminate(pid)
                self._faults.add(pid)
        if link.sock is not None:
            link.sock.close()
        process = link.process
        if process is not None and process.exitcode is None:
            process.kill()

    # ------------------------------------------------------------------
    # Transport surface consumed by SyncNetwork
    def drain_faults(self) -> frozenset[int]:
        faults = frozenset(self._faults)
        self._faults.clear()
        return faults

    def drain_link_samples(self) -> tuple[LinkSample, ...]:
        samples = tuple(self._samples)
        self._samples.clear()
        return samples
