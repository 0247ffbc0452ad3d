"""Tests for repro.transport: framing, the transport names and options,
the TCP backend, and cross-transport equivalence against the in-process
core.

The equivalence suite is the transport axis's core guarantee: every
registered protocol produces a byte-identical fingerprint (decisions
*and* metering) whether its processes run in the interpreter or as real
OS worker processes over localhost TCP, and a TCP-recorded recipe
replays in-process to the same fingerprint.  The fault-injection tests
pin the other half of the contract: a killed or stalled worker process
lands inside the omission model (crash fault + omitted copies,
conservation intact), never as a hang, and a worker that cannot start
fails setup with a ``TransportError``.
"""

import json
import multiprocessing
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.adversary import RandomOmissionAdversary
from repro.analysis.campaign import CampaignSpec, run_campaign
from repro.fabric import CellId
from repro.harness import ExecutionConfig, available_protocols, execute
from repro.replay import record, recipe_from_payload, recipe_payload, replay
from repro.runtime import (
    Adversary,
    ExecutionCore,
    RoundObserver,
    SyncNetwork,
    SyncProcess,
    result_to_dict,
)
from repro.transport import (
    RemoteExecutionCore,
    TransportError,
    available_transports,
    create_core,
)
from repro.transport import tcp
from repro.transport.framing import (
    MAX_FRAME_BYTES,
    FramingError,
    decode_body,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.transport.worker import connect_with_backoff


def mixed(n):
    return [pid % 2 for pid in range(n)]


def fingerprint(run):
    return json.dumps(result_to_dict(run.result), sort_keys=True)


#: One small case per built-in registry protocol.
EQUIVALENCE_CASES = {
    "algorithm1": {"inputs": mixed(36)},
    "tradeoff": {"inputs": mixed(36)},
    "early-stopping": {"inputs": mixed(24)},
    "multivalued": {"inputs": mixed(16)},
    "ben-or": {"inputs": mixed(9), "t": 1},
    "phase-king": {"inputs": mixed(13), "t": 3},
    "dolev-strong": {"inputs": mixed(9), "t": 2},
    "trb": {"n": 8},
    "collectors": {"n": 8},
}


class InboxProbe(SyncProcess):
    """Decides the type name of the inbox its program is handed."""

    def program(self, env):
        env.broadcast(("probe", self.pid))
        inbox = yield
        env.decide(type(inbox).__name__)


class NumpyUser(SyncProcess):
    """A hosted process that imports numpy itself, where it runs."""

    def program(self, env):
        import numpy

        env.broadcast(("probe", self.pid))
        inbox = yield
        env.decide(int(numpy.sum(numpy.arange(len(inbox) + 1))))


def tcp_options(n, workers=4):
    """Bound the OS-process count: ~``workers`` worker processes."""
    return {"processes_per_worker": max(1, -(-n // workers))}


def case_kwargs(protocol):
    case = dict(EQUIVALENCE_CASES[protocol])
    inputs = case.pop("inputs", None)
    return inputs, case


def case_n(protocol):
    inputs, case = case_kwargs(protocol)
    return case["n"] if inputs is None else len(inputs)


# ---------------------------------------------------------------------------
# Wire format.
class TestFraming:
    def test_encode_decode_round_trip(self):
        payload = ("step", {"round": 3, "inboxes": {0: [1, 2]}})
        frame = encode_frame(payload)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_body(frame[4:]) == payload

    def test_decode_garbage_raises_framing_error(self):
        with pytest.raises(FramingError, match="undecodable"):
            decode_body(b"\x00not-a-pickle")

    def test_socket_round_trip(self):
        left, right = socket.socketpair()
        try:
            sent = send_frame(left, {"hello": "world"})
            payload, received = recv_frame(right)
            assert payload == {"hello": "world"}
            assert received == sent
        finally:
            left.close()
            right.close()

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(FramingError, match="length prefix"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_peer_close_mid_frame_raises_connection_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 64) + b"short")
            left.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()


def tcp_config(**options):
    """A run description naming the TCP transport with *options*."""
    return ExecutionConfig(
        "ben-or", mixed(5), transport="tcp", transport_options=options
    )


# ---------------------------------------------------------------------------
# The transport is a name, with options.
class TestTransportRegistry:
    def test_available_transports(self):
        assert available_transports() == ("inprocess", "tcp")

    def test_default_is_inprocess(self):
        for name in (None, "inprocess"):
            core = create_core([InboxProbe(0, 1)], seed=0, transport=name)
            assert type(core) is ExecutionCore
        assert ExecutionConfig("ben-or", mixed(5)).transport is None

    def test_create_transport_by_name(self, monkeypatch):
        config = tcp_config(processes_per_worker=3)
        assert config.transport_options == {"processes_per_worker": 3}
        monkeypatch.setattr(tcp.RemoteExecutionCore, "_start", lambda core: None)
        core = create_core(
            [InboxProbe(pid, 7) for pid in range(7)],
            seed=0,
            transport=config.transport,
            transport_options=config.transport_options,
        )
        core.close()
        assert type(core) is RemoteExecutionCore
        assert [link.pids for link in core._links] == [
            (0, 1, 2), (3, 4, 5), (6,)
        ]

    def test_create_transport_unknown_name(self):
        with pytest.raises(ValueError, match="unknown transport"):
            ExecutionConfig("ben-or", mixed(5), transport="carrier-pigeon")

    def test_options_require_a_name(self):
        with pytest.raises(ValueError, match="transport_options"):
            ExecutionConfig("ben-or", mixed(5), transport_options={"anything": 1})

    @pytest.mark.parametrize(
        "name,accepted",
        [("inprocess", r"\(none\)"), ("tcp", "processes_per_worker, host")],
    )
    def test_rejects_an_option_the_transport_does_not_take(self, name, accepted):
        with pytest.raises(ValueError, match=f"takes no option 'hops'.*{accepted}"):
            ExecutionConfig(
                "ben-or", mixed(5), transport=name, transport_options={"hops": 1}
            )

    def test_default_places_one_worker_per_core(self, monkeypatch):
        """``processes_per_worker=None`` (the default) is resolved per run
        from what the process can observe: ceil(n / cores) per worker, in
        contiguous pid blocks; the options, hence every identity, keep the
        ``None`` the caller gave."""
        assert tcp.OPTIONS["processes_per_worker"] is None
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        network = SyncNetwork(
            [InboxProbe(pid, 7) for pid in range(7)], transport="tcp"
        )
        try:
            blocks = [link.pids for link in network._core._links]
        finally:
            network._core.close()
        assert blocks == [(0, 1, 2), (3, 4, 5), (6,)]
        assert tcp_config().transport_options == {}


class TestTcpValidation:
    def test_rejects_non_loopback_host(self):
        with pytest.raises(ValueError, match="loopback"):
            tcp_config(host="0.0.0.0")

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"processes_per_worker": 0}, "processes_per_worker"),
            ({"connect_timeout_s": 0}, "connect_timeout_s"),
            ({"link_timeout_s": -1}, "link_timeout_s"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            tcp_config(**kwargs)


class TestConnectBackoff:
    def test_connects_to_live_listener(self):
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            port = listener.getsockname()[1]
            sock, retries = connect_with_backoff(
                "127.0.0.1", port, timeout_s=5.0
            )
            sock.close()
            assert retries == 0
        finally:
            listener.close()

    def test_fails_fast_on_dead_port(self):
        # Grab a free port, then close it so nothing listens there.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError, match="could not reach"):
            connect_with_backoff("127.0.0.1", port, timeout_s=0.2)


# ---------------------------------------------------------------------------
# Cross-transport equivalence: every registered protocol, byte-identical
# fingerprint between the in-process core and real OS workers over TCP,
# and the TCP-recorded recipe replays in-process.
class TestCrossTransportEquivalence:
    def test_cases_cover_builtin_registry(self):
        assert set(EQUIVALENCE_CASES) <= set(available_protocols())
        assert set(EQUIVALENCE_CASES) == {
            "algorithm1", "tradeoff", "early-stopping", "multivalued",
            "ben-or", "phase-king", "dolev-strong", "trb", "collectors",
        }

    @pytest.mark.parametrize("protocol", sorted(EQUIVALENCE_CASES))
    def test_tcp_matches_inprocess_and_replays(self, protocol):
        """Also the certificate for Algorithm 3's quiescent-round test by
        *value*: inside a worker every inbox payload is an unpickled copy,
        so a heartbeat is equal to ``spreading._HEARTBEAT`` but never
        identical with it (``algorithm1``, ``tradeoff``, ``early-stopping``
        gossip there), and ``record``'s ``InvariantObserver`` re-sizes
        every presized pack the workers queued."""
        inputs, case = case_kwargs(protocol)
        baseline = fingerprint(execute(protocol, inputs, seed=7, **case))
        recorded = record(ExecutionConfig(
            protocol,
            inputs,
            seed=7,
            transport="tcp",
            transport_options=tcp_options(case_n(protocol)),
            **case,
        ))
        assert not recorded.failed
        assert fingerprint(recorded.run) == baseline
        assert recorded.recipe.config.transport == "tcp"
        # The recipe replays *in-process* to the recorded fingerprint:
        # transport is provenance, not a replay input.
        report = replay(recorded.recipe)
        assert report.matches, report.summary()

    def test_equivalence_under_omission_adversary(self):
        runs = [
            execute(
                "phase-king",
                mixed(13),
                t=3,
                seed=7,
                adversary=RandomOmissionAdversary(0.3, seed=7),
                transport=transport,
                transport_options=options,
            )
            for transport, options in (
                (None, None),
                ("tcp", tcp_options(13)),
            )
        ]
        assert fingerprint(runs[0]) == fingerprint(runs[1])
        assert runs[0].result.faulty == runs[1].result.faulty


# ---------------------------------------------------------------------------
# What crosses the coordinator -> worker link.
class _LinkTap(RoundObserver):
    """Collects the run's ``LinkSample`` stream off ``on_transport``."""

    def __init__(self):
        self.samples = []

    def on_transport(self, round_no, samples, network):
        self.samples.extend(samples)

    def steps(self, round_no=None):
        """Step samples (no handshakes), of one round if given."""
        return [
            sample
            for sample in self.samples
            if sample.round >= 0 and round_no in (None, sample.round)
        ]


class TestWire:
    def test_coordinator_ships_columns_not_messages(self, materialized):
        """A fault-free Algorithm 1 run over TCP builds no ``Message`` on
        the coordinator (the parent materialized every hosted inbox of
        every columnar round to pickle it) and sends <= 12 bytes per
        simulated copy (parent 31.1; a count, it repeats exactly).  The
        one observer attached reads link samples only."""
        links = _LinkTap()
        run = execute(
            "algorithm1",
            mixed(64),
            seed=7,
            observers=(links,),
            transport="tcp",
            transport_options=tcp_options(64, workers=2),
        )
        assert materialized == []
        assert all(sample.ok for sample in links.samples)
        copies = run.result.metrics.messages_sent
        bytes_sent = sum(sample.bytes_sent for sample in links.steps())
        assert 0 < bytes_sent <= 12 * copies

    def test_inboxes_cross_as_plain_columns(self, monkeypatch):
        """A hosted program is handed a ``ColumnInbox``, and no step frame
        pickles a numpy object — its bytes name no ``numpy`` global — even
        on an Algorithm 1 run whose coordinator delivers by column."""
        steps = []

        def encode(payload):
            data = encode_frame(payload)
            if payload[0] == "step":
                steps.append(data)
            return data

        monkeypatch.setattr(tcp, "encode_frame", encode)
        network = SyncNetwork(
            [InboxProbe(pid, 4) for pid in range(4)],
            transport="tcp",
            transport_options={"processes_per_worker": 2},
        )
        assert network.run().decisions == dict.fromkeys(range(4), "ColumnInbox")
        execute(
            "algorithm1",
            mixed(64),
            seed=7,
            transport="tcp",
            transport_options=tcp_options(64, workers=2),
        )
        assert steps and not any(b"numpy" in data for data in steps)

    def test_importing_the_package_does_not_import_asyncio(self):
        """The transport speaks blocking sockets at both ends, so no run —
        in-process ones included — pays for an event loop."""
        src = str(Path(tcp.__file__).resolve().parents[2])
        subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.transport, repro.harness, repro.cli; "
             "assert 'asyncio' not in sys.modules"],
            env={**os.environ, "PYTHONPATH": src},
            check=True,
            timeout=60,
        )

    def test_hosted_process_may_import_numpy_itself(self):
        """A process class that needs numpy gets the real one inside the
        worker."""
        pytest.importorskip("numpy")
        network = SyncNetwork(
            [NumpyUser(pid, 4) for pid in range(4)],
            transport="tcp",
            transport_options={"processes_per_worker": 2},
        )
        result = network.run()
        assert result.decisions == dict.fromkeys(range(4), 6)  # 0+1+2+3
        assert not result.faulty


# ---------------------------------------------------------------------------
# Transport faults: a killed worker process lands inside the omission
# model — crash fault plus omitted copies — never as a hang.
class _KillWorkerLink(RoundObserver):
    """Signal (default: kill) one worker link's OS process at the end of
    a given round.

    Phase-king's traffic cycles heavy/light/silent across each 3-round
    phase; killing at the *end* of round 2 makes the crash surface during
    round 3's heavy advance, so the dead worker has in-flight copies for
    the adversary arbitration to omit.
    """

    def __init__(self, link_index, at_round, signum=signal.SIGKILL):
        self.link_index = link_index
        self.at_round = at_round
        self.signum = signum
        self.killed = False
        self.links = None

    def on_round_end(self, round_no, network):
        if round_no != self.at_round or self.killed:
            return
        self.links = network._core._links
        link = self.links[self.link_index]
        assert link.process is not None
        os.kill(link.process.pid, self.signum)
        self.killed = True


class _Sleep(RoundObserver):
    """A coordinator busy for ``seconds`` between two step frames."""

    def __init__(self, at_round, seconds):
        self.at_round = at_round
        self.seconds = seconds

    def on_round_end(self, round_no, network):
        if round_no == self.at_round:
            time.sleep(self.seconds)


def conserved(metrics):
    return metrics.messages_sent == (
        metrics.messages_delivered
        + metrics.messages_omitted
        + metrics.messages_lost
    )


class TestTransportFaults:
    def test_killed_worker_becomes_omissions_not_a_hang(self):
        # ppw=4 over n=13 gives links (0-3)(4-7)(8-11)(12): link 3
        # hosts exactly pid 12, so the blast radius is one process.
        killer = _KillWorkerLink(link_index=3, at_round=2)
        metrics_tap = _LinkTap()
        run = execute(
            "phase-king",
            mixed(13),
            t=3,
            seed=7,
            observers=(killer, metrics_tap),
            transport="tcp",
            transport_options={"processes_per_worker": 4, "link_timeout_s": 5.0},
        )
        assert killer.killed
        result = run.result
        assert 12 in result.faulty
        metrics = result.metrics
        assert metrics.messages_omitted > 0
        # The metering identity survives the transport fault: the dead
        # worker's in-flight copies became omissions, its undeliverable
        # later traffic became losses.
        assert conserved(metrics)
        assert any(not sample.ok for sample in metrics_tap.steps())

    def test_stalled_worker_becomes_omissions_at_its_own_deadline(self):
        """A live-but-silent link (SIGSTOP) is crash-faulted after
        ``link_timeout_s``; the links that did reply that round were
        measured to *their* reply, not to the stalled one's deadline."""
        stopper = _KillWorkerLink(link_index=3, at_round=2, signum=signal.SIGSTOP)
        tap = _LinkTap()
        began = time.monotonic()
        run = execute(
            "phase-king",
            mixed(13),
            t=3,
            seed=7,
            observers=(stopper, tap),
            transport="tcp",
            transport_options={"processes_per_worker": 4, "link_timeout_s": 1.0},
        )
        assert time.monotonic() - began < 15.0
        assert stopper.killed
        assert 12 in run.result.faulty
        assert run.result.metrics.messages_omitted > 0
        assert conserved(run.result.metrics)
        by_worker = {sample.worker: sample for sample in tap.steps(round_no=3)}
        assert sorted(by_worker) == [0, 1, 2, 3]
        assert not by_worker[3].ok and by_worker[3].latency_s >= 1.0
        for worker in (0, 1, 2):
            assert by_worker[worker].ok and by_worker[worker].latency_s < 1.0
        # close() reaped every worker, the stopped one included.
        assert all(link.process.exitcode is not None for link in stopper.links)

    def test_busy_coordinator_does_not_time_its_workers_out(self):
        """``connect_timeout_s`` budgets the connection, not the run: a
        coordinator that takes longer than that between two step frames
        (slow adversary, debugger, loaded box) finds its workers waiting."""
        kwargs = dict(t=3, seed=7)
        baseline = fingerprint(execute("phase-king", mixed(13), **kwargs))
        run = execute(
            "phase-king",
            mixed(13),
            observers=(_Sleep(at_round=1, seconds=3.0),),
            transport="tcp",
            transport_options={"processes_per_worker": 4, "connect_timeout_s": 2.0},
            **kwargs,
        )
        assert run.result.faulty == frozenset()
        assert fingerprint(run) == baseline


# ---------------------------------------------------------------------------
# Setup: who gets a worker slot, and how long a missing worker is waited for.
@pytest.fixture
def spawned(monkeypatch):
    """Every worker process the coordinator started, recorded as its core
    closes (setup failures included: ``__init__`` closes before raising)."""
    made, close = [], tcp.RemoteExecutionCore.close

    def recording_close(core):
        if not core._closed:
            made.extend(link.process for link in core._links if link.process)
        close(core)

    monkeypatch.setattr(tcp.RemoteExecutionCore, "close", recording_close)
    return made


class _FailingSetup(Adversary):
    def setup(self, ctx):
        raise RuntimeError("set-up failed")


class _FailingStart(RoundObserver):
    def on_run_start(self, network):
        raise RuntimeError("set-up failed")


class TestSetup:
    @pytest.mark.parametrize(
        "hooks",
        [{"adversary": _FailingSetup()}, {"observers": (_FailingStart(),)}],
        ids=["adversary-setup", "on_run_start"],
    )
    def test_workers_do_not_outlive_a_failing_run_setup(self, hooks):
        """``Adversary.setup`` and every ``on_run_start`` run inside the
        ``try`` whose ``finally`` closes the core: no worker is left alive
        while the caller holds the exception (as pytest and ``campaign``
        do), its traceback keeping the network reachable."""
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="set-up failed") as held:
            execute(
                "ben-or",
                mixed(8),
                t=1,
                transport="tcp",
                transport_options={"processes_per_worker": 4},
                **hooks,
            )
        assert held.value.__traceback__ is not None
        assert set(multiprocessing.active_children()) - before == set()

    def test_budget_is_checked_before_any_worker_starts(self, monkeypatch):
        started = []
        monkeypatch.setattr(
            tcp.RemoteExecutionCore, "_start", lambda core: started.append(core)
        )
        with pytest.raises(
            ValueError, match=r"fault budget t=8 must satisfy 0 <= t < n=8"
        ):
            SyncNetwork(
                [InboxProbe(pid, 8) for pid in range(8)],
                t=8,
                transport="tcp",
                transport_options={"processes_per_worker": 2},
            )
        assert started == []

    def test_stray_connections_take_no_worker_slot(self, monkeypatch):
        """Connections that dial the listener before any worker — a wrong
        token claiming slot 0, a hello of the wrong shape, bytes that are
        no frame — are dropped, and the run starts with every worker."""
        real, strays = socket.create_server, []

        def listener_with_strays(address, **kwargs):
            server = real(address, **kwargs)
            for frame in (
                encode_frame(
                    ("hello", {"worker": 0, "token": "0" * 32, "retries": 0})
                ),
                encode_frame(("hello", "not-a-mapping")),
                struct.pack(">I", 3) + b"abc",
            ):
                stray = socket.create_connection(server.getsockname(), timeout=5.0)
                stray.sendall(frame)
                strays.append(stray)
            return server

        monkeypatch.setattr(tcp.socket, "create_server", listener_with_strays)
        kwargs = dict(t=3, seed=7)
        baseline = fingerprint(execute("phase-king", mixed(13), **kwargs))
        run = execute(
            "phase-king",
            mixed(13),
            transport="tcp",
            transport_options={"processes_per_worker": 7},
            **kwargs,
        )
        assert len(strays) == 3
        assert run.result.faulty == frozenset()
        assert fingerprint(run) == baseline
        for stray in strays:
            assert stray.recv(1) == b""  # dropped by the coordinator
            stray.close()

    def test_workers_that_never_connect_fail_at_the_deadline(
        self, monkeypatch, spawned
    ):
        monkeypatch.setattr(
            "repro.transport.worker.main", lambda *args, **kwargs: time.sleep(60)
        )
        began = time.monotonic()
        with pytest.raises(TransportError, match=r"workers \[0, 1\] did not connect"):
            execute(
                "phase-king",
                mixed(13),
                t=3,
                transport="tcp",
                transport_options={
                    "processes_per_worker": 7,
                    "connect_timeout_s": 1.0,
                },
            )
        assert 1.0 <= time.monotonic() - began < 10.0
        assert len(spawned) == 2
        assert all(process.exitcode is not None for process in spawned)

    def test_worker_dead_on_arrival_fails_setup_at_once(
        self, monkeypatch, spawned
    ):
        """A worker that exits before its hello (its block failed to
        start) is noticed by its exit, not by the connect deadline."""
        monkeypatch.setattr(
            "repro.transport.worker.main", lambda *args, **kwargs: sys.exit(3)
        )
        began = time.monotonic()
        with pytest.raises(TransportError, match=r"worker \d exited with code 3"):
            execute(
                "phase-king",
                mixed(13),
                t=3,
                transport="tcp",
                transport_options={
                    "processes_per_worker": 7,
                    "connect_timeout_s": 10.0,
                },
            )
        assert time.monotonic() - began < 2.0
        assert len(spawned) == 2
        assert all(process.exitcode is not None for process in spawned)


# ---------------------------------------------------------------------------
# Forked workers: whose children they are, and where a fork may happen.
class _ChildPoll(RoundObserver):
    """``os.waitpid(pid, WNOHANG)`` of every link's worker at round 1."""

    def __init__(self):
        self.polled = {}

    def on_round_end(self, round_no, network):
        if round_no == 1:
            for link in network._core._links:
                pid = link.process.pid
                self.polled[pid] = os.waitpid(pid, os.WNOHANG)


class TestForkedWorkers:
    def test_workers_are_the_coordinators_children_for_one_run(self):
        """A live direct child polls ``(0, 0)`` (a non-child raises), and
        after the run every worker is reaped: its CPU and RSS are in this
        process's ``RUSAGE_CHILDREN`` and no zombie is left."""
        poll = _ChildPoll()
        execute(
            "phase-king",
            mixed(13),
            t=3,
            seed=7,
            observers=(poll,),
            transport="tcp",
            transport_options=tcp_options(13),
        )
        assert len(poll.polled) == 4
        assert set(poll.polled.values()) == {(0, 0)}
        for pid in poll.polled:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_tcp_cells_in_the_fork_pool_match_a_serial_run(self):
        """A campaign worker (itself a fork) forks its own TCP workers."""
        spec = CampaignSpec(
            name="tcp-pool", protocol="algorithm1", ns=[16, 25],
            adversaries=["none"], seeds=[0, 1], transport="tcp",
        )
        assert run_campaign(spec, jobs=2) == run_campaign(spec, jobs=1)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork + thread
    def test_a_live_thread_does_not_change_the_run(self):
        """The fork copies only the calling thread; one parked in
        ``Event.wait`` holds nothing a worker needs."""
        kwargs = dict(t=3, seed=7)
        baseline = fingerprint(execute("phase-king", mixed(13), **kwargs))
        release = threading.Event()
        parked = threading.Thread(target=release.wait)
        parked.start()
        try:
            run = execute(
                "phase-king",
                mixed(13),
                transport="tcp",
                transport_options=tcp_options(13),
                **kwargs,
            )
        finally:
            release.set()
            parked.join(timeout=5.0)
        assert not parked.is_alive()
        assert fingerprint(run) == baseline


# ---------------------------------------------------------------------------
# Recipe provenance: the recorded transport rides in the payload but
# replay always runs in-process.
class TestRecipeProvenance:
    def test_recorded_transport_defaults_to_inprocess(self):
        recorded = record(ExecutionConfig("ben-or", mixed(9), t=1, seed=7))
        assert recorded.recipe.config.transport == "inprocess"
        assert recorded.recipe.config.transport_options == {}

    def test_payload_round_trips_transport_fields(self):
        recorded = record(ExecutionConfig(
            "ben-or",
            mixed(9),
            t=1,
            seed=7,
            transport="tcp",
            transport_options={"processes_per_worker": 3},
        ))
        payload = recipe_payload(recorded.recipe)
        assert payload["transport"] == "tcp"
        assert payload["transport_options"] == {"processes_per_worker": 3}
        rebuilt = recipe_from_payload(payload)
        assert rebuilt.config.transport == "tcp"
        assert rebuilt.config.transport_options == {"processes_per_worker": 3}

    def test_pre_transport_payload_reads_as_inprocess(self):
        recorded = record(ExecutionConfig("ben-or", mixed(9), t=1, seed=7))
        payload = recipe_payload(recorded.recipe)
        del payload["transport"]
        del payload["transport_options"]
        legacy = recipe_from_payload(payload)
        assert legacy.config.transport == "inprocess"
        assert legacy.config.transport_options == {}


# ---------------------------------------------------------------------------
# The transport axis in cell identity and campaign specs.
class TestTransportIdentity:
    def _cell(self, **overrides):
        base = dict(
            protocol="algorithm1",
            n=33,
            t=0,
            adversary="none",
            seed=0,
        )
        base.update(overrides)
        return CellId.make(**base)

    def test_transport_changes_the_digest(self):
        default = self._cell()
        pinned = self._cell(transport="tcp")
        assert default.digest != pinned.digest
        # None (unpinned) and an explicit "inprocess" are distinct
        # identities: pinning is part of the ask.
        assert default.digest != self._cell(transport="inprocess").digest

    def test_transport_options_change_the_digest(self):
        plain = self._cell(transport="tcp")
        tuned = self._cell(
            transport="tcp", transport_options={"processes_per_worker": 4}
        )
        assert plain.digest != tuned.digest

    def test_payload_and_record_round_trip(self):
        cell = self._cell(
            transport="tcp", transport_options={"processes_per_worker": 4}
        )
        payload = cell.payload()
        assert payload["transport"] == "tcp"
        record_shape = dict(
            payload,
            transport_options={"processes_per_worker": 4},
            options={},
        )
        assert CellId.from_record(record_shape) == cell

    def test_pre_transport_record_reads_as_default(self):
        cell = self._cell()
        payload = cell.payload()
        del payload["transport"]
        del payload["transport_options"]
        legacy = dict(payload, options={})
        assert CellId.from_record(legacy) == cell

    def test_campaign_spec_validates_transport(self):
        spec = CampaignSpec(
            name="t", protocol="algorithm1", ns=[33], adversaries=["none"],
            seeds=[0], transport="tcp",
        )
        assert spec.cell_id(33, "none", 0).transport == "tcp"
        with pytest.raises(ValueError, match="unknown transport"):
            CampaignSpec(
                name="t", protocol="algorithm1", ns=[33],
                adversaries=["none"], seeds=[0], transport="smoke-signals",
            )

    def test_campaign_spec_options_require_transport(self):
        with pytest.raises(ValueError, match="explicit transport"):
            CampaignSpec(
                name="t", protocol="algorithm1", ns=[33],
                adversaries=["none"], seeds=[0],
                transport_options={"processes_per_worker": 4},
            )
