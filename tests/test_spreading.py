"""Unit tests for GroupBitsSpreading (Algorithm 3) via a harness network."""

import random

import repro.core.spreading
import repro.runtime.messages
import repro.runtime.process
from repro.adversary import EclipseAdversary, SilenceAdversary
from repro.core.spreading import (
    _HEARTBEAT,
    TAG_PACK,
    SpreadingState,
    group_bits_spreading,
)
from repro.graphs import spreading_graph
from repro.harness import execute
from repro.runtime import (
    CountingRandom,
    Message,
    ProcessEnv,
    SyncNetwork,
    SyncProcess,
)

from .delivery_oracle import clear, queued


class SpreadingHarness(SyncProcess):
    """Each process owns one slot (its pid) and gossips it on the graph."""

    def __init__(self, pid, n, graph, rounds, degree_threshold, counts=None):
        super().__init__(pid, n)
        self.graph = graph
        self.rounds = rounds
        self.degree_threshold = degree_threshold
        self.counts = counts if counts is not None else (pid + 1, pid)
        self.state = SpreadingState(
            neighbors=tuple(sorted(graph.neighbors(pid)))
        )
        self.result = None

    def program(self, env: ProcessEnv):
        result = yield from group_bits_spreading(
            env,
            self.state,
            group_count=self.n,
            my_group=self.pid,
            my_counts=self.counts,
            rounds=self.rounds,
            degree_threshold=self.degree_threshold,
        )
        self.result = result
        env.decide((result.ones, result.zeros, result.operative))
        return None


def build(n, delta, rounds, threshold, adversary=None, t=0, seed=0):
    graph = spreading_graph(n, delta, seed=seed)
    processes = [
        SpreadingHarness(pid, n, graph, rounds, threshold) for pid in range(n)
    ]
    network = SyncNetwork(processes, adversary=adversary, t=t, seed=seed)
    return graph, processes, network


class TestFaultFreeSpreading:
    def test_all_slots_reach_everyone(self):
        n = 32
        _, processes, network = build(n, delta=8, rounds=10, threshold=2)
        result = network.run()
        expected_ones = sum(pid + 1 for pid in range(n))
        expected_zeros = sum(pid for pid in range(n))
        for pid in range(n):
            assert result.decisions[pid] == (expected_ones, expected_zeros, True)

    def test_rounds_consumed_exactly(self):
        _, _, network = build(16, delta=6, rounds=7, threshold=1)
        result = network.run()
        assert result.rounds == 7

    def test_each_slot_crosses_each_link_once(self):
        """The per-link dedup keeps traffic near n * Delta * sqrt(n) scale:
        total payload entries <= 2 * #edges * #slots."""
        n = 24
        graph, _, network = build(n, delta=6, rounds=12, threshold=1)
        result = network.run()
        entry_budget = 2 * graph.edge_count * n
        # Each entry is a (slot, ones, zeros) triple of >= 6 bits; messages
        # also carry per-round overhead, so compare conservatively.
        assert result.metrics.messages_sent <= 2 * graph.edge_count * 12
        assert result.metrics.bits_sent <= 40 * entry_budget + \
            result.metrics.messages_sent * 16


class TestSpreadingUnderFaults:
    def test_silenced_processes_go_inoperative(self):
        n = 24
        _, processes, network = build(
            n, delta=8, rounds=8, threshold=3,
            adversary=SilenceAdversary([0, 1]), t=2,
        )
        result = network.run()
        assert result.decisions[0][2] is False
        assert result.decisions[1][2] is False

    def test_survivors_get_all_surviving_slots(self):
        """Operative processes learn every slot owned by a process that
        stayed operative (Lemma 6)."""
        n = 24
        _, processes, network = build(
            n, delta=8, rounds=10, threshold=3,
            adversary=SilenceAdversary([0]), t=1,
        )
        result = network.run()
        operative_pids = [
            pid for pid in range(n) if result.decisions[pid][2]
        ]
        # Every operative process must include every operative slot, so its
        # ones-total is at least the sum over operative slots.
        minimum_ones = sum(pid + 1 for pid in operative_pids)
        for pid in operative_pids:
            assert result.decisions[pid][0] >= minimum_ones

    def test_eclipse_makes_nonfaulty_victim_inoperative(self):
        """Silencing a victim's neighbourhood starves it below Delta/3 while
        the victim itself is never corrupted."""
        n = 30
        graph = spreading_graph(n, 6, seed=3)
        victim = 0
        neighbors = sorted(graph.neighbors(victim))
        processes = [
            SpreadingHarness(pid, n, graph, rounds=8, degree_threshold=3)
            for pid in range(n)
        ]
        adversary = EclipseAdversary(victim, neighbors)
        network = SyncNetwork(
            processes, adversary=adversary, t=len(neighbors), seed=3
        )
        result = network.run()
        assert victim not in result.faulty
        assert result.decisions[victim][2] is False

    def test_silent_links_disregarded_persistently(self):
        n = 20
        graph = spreading_graph(n, 6, seed=4)
        processes = [
            SpreadingHarness(pid, n, graph, rounds=6, degree_threshold=1)
            for pid in range(n)
        ]
        adversary = SilenceAdversary([5])
        network = SyncNetwork(processes, adversary=adversary, t=1, seed=4)
        network.run()
        for process in processes:
            if 5 in process.state.neighbors and process.pid != 5:
                assert 5 in process.state.disregarded


# ---------------------------------------------------------------------------
# Count guards (counts repeat exactly; timings are the benchmark's job).
class ProbeHeartbeat(tuple):
    """An empty pack equal to, but never identical with, the module's own
    (what a TCP worker unpickles) that counts how often it is indexed --
    which only the general receive loop does."""

    indexed = 0

    def __getitem__(self, index):
        type(self).indexed += 1
        return tuple.__getitem__(self, index)


def probe(sender):
    # A tuple subclass is not sizeable; an inbox copy's bits are not read.
    return Message(sender, 0, ProbeHeartbeat(_HEARTBEAT), bits=1)


class TestQuiescentRounds:
    def drive(self, monkeypatch, second_inbox):
        """Neighbours 1..3, two rounds by hand; returns the round-2 and
        round-3 outboxes (queued when an inbox is sent in)."""
        monkeypatch.setattr(ProbeHeartbeat, "indexed", 0)
        env = ProcessEnv(0, 4, CountingRandom(0))
        state = SpreadingState(neighbors=(1, 2, 3))
        program = group_bits_spreading(env, state, 2, 0, (5, 6), 3, 0)
        next(program)  # round 1: its own pack to every link
        outboxes = []
        for inbox in ([probe(1), probe(2), probe(3)], second_inbox):
            clear(env)
            program.send(inbox)
            outboxes.append(queued(env))
        return state, outboxes

    def test_all_heartbeat_inbox_never_enters_the_general_loop(
        self, monkeypatch
    ):
        state, outboxes = self.drive(monkeypatch, [probe(1), probe(3)])
        assert ProbeHeartbeat.indexed == 0
        for outbox, live in zip(outboxes, [(1, 2, 3), (1, 3)]):
            (record,) = outbox  # one heartbeat multicast to the live links
            assert record.recipients == live
            assert record.payload is _HEARTBEAT
        assert state.disregarded == {2}

    def test_one_pack_in_the_inbox_takes_the_general_loop(self, monkeypatch):
        pack = (TAG_PACK, ((1, 7, 8),))
        state, outboxes = self.drive(
            monkeypatch, [probe(1), Message(2, 0, pack), probe(3)]
        )
        # Both probes of the mixed inbox went through the loop's predicate
        # (tag, then body); an equal-not-identical heartbeat is still heard.
        assert ProbeHeartbeat.indexed == 2 * 2
        assert state.disregarded == set()
        flat = [
            (recipient, record.payload)
            for record in outboxes[1]
            for recipient in record.recipients
        ]
        assert flat == [(1, pack), (2, _HEARTBEAT), (3, pack)]
        # Forwarded by reference: the very triple that arrived.
        assert outboxes[1][0].payload[1][0] is pack[1][0]


def test_algorithm1_sizes_a_pack_when_it_is_learned(monkeypatch):
    """Count guard: a fault-free balanced ``algorithm1`` n=64 run (seed
    16000) made 9 895 top-level ``payload_bits`` calls while every spreading
    record was sized when sent; sizing a slot once, when it is learned,
    leaves under two thirds of that -- for exactly the same bits."""
    original = repro.runtime.messages.payload_bits
    calls = {"top": 0, "depth": 0}

    def counted(payload):
        calls["top"] += not calls["depth"]
        calls["depth"] += 1
        try:
            return original(payload)
        finally:
            calls["depth"] -= 1

    for module in (
        repro.runtime.messages, repro.runtime.process, repro.core.spreading
    ):
        monkeypatch.setattr(module, "payload_bits", counted)
    inputs = [pid % 2 for pid in range(64)]
    random.Random(16000).shuffle(inputs)
    result = execute("algorithm1", inputs, seed=16000)
    assert result.metrics.bits_sent == 3_014_701
    assert 0 < calls["top"] <= 6_360
