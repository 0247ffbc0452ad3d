"""Differential test: ``group_bits_spreading`` vs its per-link original.

``GroupBitsSpreading`` keeps a bitmask queue only for links that are owed
something, emits one multicast per run of consecutive neighbours that get
the same pack, forwards learned triples by reference, states each pack's
size from per-slot costs and spends O(1) on a round with no news.  This
module keeps the original — a Python set per link, one ``env.send`` per
link, every copy sized by ``payload_bits`` — verbatim as the executable
specification, and checks that the two queue identical flat copies (same
order, payloads and bit sizes), return identical results and leave
identical state on generated graphs, seeds and adversaries, including links
silenced mid-epoch and a process with no neighbours at all.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import GALLERY, EclipseAdversary, RandomOmissionAdversary
from repro.core.spreading import (
    TAG_PACK,
    SpreadingResult,
    SpreadingState,
    group_bits_spreading,
)
from repro.graphs import spreading_graph
from repro.harness import execute
from repro.runtime import (
    Adversary,
    AdversaryAction,
    CountingRandom,
    Message,
    ProcessEnv,
    RoundObserver,
    SyncNetwork,
    SyncProcess,
)

from .delivery_oracle import clear, queued
from .test_golden_dolev_strong import FlatCopyRecorder


def reference_group_bits_spreading(
    env, state, group_count, my_group, my_counts, rounds, degree_threshold
):
    """The original per-link loop (one set and one ``env.send`` per link)."""
    packs = [None] * group_count
    packs[my_group] = my_counts
    # Per-link queues of slots not yet exchanged on that link (tracking the
    # queue beats rescanning all sqrt(n) slots per link per round).
    pending = {v: {my_group} for v in state.neighbors}
    operative = True
    empty_pack = (TAG_PACK, ())

    for _round_index in range(rounds):
        if operative:
            for neighbor in state.live_neighbors():
                queue = pending[neighbor]
                if queue:
                    fresh = tuple(
                        (slot, packs[slot][0], packs[slot][1])
                        for slot in sorted(queue)
                    )
                    queue.clear()
                    env.send(neighbor, (TAG_PACK, fresh))
                else:
                    # Heartbeat: liveness is judged per round.
                    env.send(neighbor, empty_pack)
            inbox = yield
            heard = set()
            for message in inbox:
                sender = message.sender
                if sender in state.disregarded or sender not in pending:
                    continue
                payload = message.payload
                if not (
                    isinstance(payload, tuple)
                    and payload
                    and payload[0] == TAG_PACK
                ):
                    continue
                heard.add(sender)
                for slot, ones, zeros in payload[1]:
                    if packs[slot] is None:
                        packs[slot] = (ones, zeros)
                        for queue in pending.values():
                            queue.add(slot)
                    # Known on this link already: no need to echo it back.
                    pending[sender].discard(slot)
            silent = set(state.live_neighbors()) - heard
            state.disregarded |= silent
            if len(heard) < degree_threshold:
                operative = False
        else:
            yield

    ones = sum(entry[0] for entry in packs if entry is not None)
    zeros = sum(entry[1] for entry in packs if entry is not None)
    return SpreadingResult(ones=ones, zeros=zeros, operative=operative, packs=packs)


class EpochsHarness(SyncProcess):
    """Runs two spreading runs back to back on one persistent
    :class:`SpreadingState`, as Algorithm 1 does.  Several processes own
    each slot with *different* counts, so "first pack received wins" and
    the carried-over ``disregarded`` set are both exercised."""

    def __init__(self, pid, n, spreading, graph, group_count, rounds, threshold):
        super().__init__(pid, n)
        self.spreading = spreading
        self.group_count = group_count
        self.rounds = rounds
        self.threshold = threshold
        self.state = SpreadingState(neighbors=tuple(sorted(graph.neighbors(pid))))
        self.results = []
        self.disregarded_after = []  # a copy per finished run

    def program(self, env):
        for epoch in range(2):
            result = yield from self.spreading(
                env,
                self.state,
                self.group_count,
                self.pid % self.group_count,
                (self.pid + epoch, 2 * self.pid + 1),
                self.rounds,
                self.threshold,
            )
            self.results.append(result)
            self.disregarded_after.append(set(self.state.disregarded))
        env.decide(self.results[-1].ones)
        return None


class EclipseSchedule(Adversary):
    """Starts one :class:`EclipseAdversary` per scheduled round, so a link
    of the victim falls silent mid-epoch and another in a later epoch."""

    def __init__(self, victim, starts):
        self.starts = {
            round_no: EclipseAdversary(victim, neighbors)
            for round_no, neighbors in starts.items()
        }
        self.running = []

    def act(self, view):
        if view.round in self.starts:
            self.running.append(self.starts[view.round])
        actions = [eclipse.act(view) for eclipse in self.running]
        return AdversaryAction(
            corrupt=frozenset().union(*(a.corrupt for a in actions)),
            omit=frozenset().union(*(a.omit for a in actions)),
        )


class WithoutVertex:
    """``graph`` with every link of one vertex cut: a zero-neighbour
    process next to neighbours that never list it."""

    def __init__(self, graph, isolated):
        self.graph = graph
        self.isolated = isolated

    def neighbors(self, pid):
        if pid == self.isolated:
            return []
        return [v for v in self.graph.neighbors(pid) if v != self.isolated]


def adversary(name, n, t, seed, graph, rounds):
    if name == "eclipse":
        return EclipseAdversary(0, sorted(graph.neighbors(0)))
    if name == "eclipse-schedule":
        # One link of pid 0 dies inside the first run (never in its first
        # round when there is a later one), a second inside the second run.
        first, *rest = sorted(graph.neighbors(0)) or [1]
        return EclipseSchedule(0, {
            min(1 + seed % 3, rounds - 1): [first],
            rounds + seed % rounds: rest[:1],
        })
    if name == "random-0.3":
        return RandomOmissionAdversary(0.3, seed=seed)
    return GALLERY[name](n, t, seed)


def run(
    spreading, n, delta, group_count, rounds, threshold, name, seed,
    isolated=None,
):
    graph = spreading_graph(n, delta, seed=seed)
    if isolated is not None:
        graph = WithoutVertex(graph, isolated)
    t = max(1, n // 4)
    processes = [
        EpochsHarness(pid, n, spreading, graph, group_count, rounds, threshold)
        for pid in range(n)
    ]
    copies = FlatCopyRecorder()
    network = SyncNetwork(
        processes,
        adversary=adversary(name, n, t, seed, graph, rounds),
        t=t,
        seed=seed,
        observers=[copies],
    )
    result = network.run()
    return processes, copies, result


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=40),
    delta=st.integers(min_value=2, max_value=9),
    slots=st.integers(min_value=1, max_value=12),
    rounds=st.integers(min_value=1, max_value=7),
    threshold=st.integers(min_value=0, max_value=3),
    name=st.sampled_from([
        "none", "silence", "random", "random-0.3", "staggered-crash", "eclipse",
        "eclipse-schedule",
    ]),
    seed=st.integers(min_value=0, max_value=10_000),
    isolated=st.sampled_from([None, None, 1]),
)
def test_bitmask_runs_match_the_per_link_original(
    n, delta, slots, rounds, threshold, name, seed, isolated
):
    group_count = min(slots, n)
    args = (n, delta, group_count, rounds, threshold, name, seed, isolated)
    old_processes, old_copies, old_result = run(
        reference_group_bits_spreading, *args
    )
    new_processes, new_copies, new_result = run(group_bits_spreading, *args)

    assert new_copies.sent == old_copies.sent
    assert new_copies.delivered == old_copies.delivered
    for old, new in zip(old_processes, new_processes):
        assert new.results == old.results  # dataclass eq: includes packs
        assert new.state.disregarded == old.state.disregarded
    assert new_result.decisions == old_result.decisions
    assert new_result.faulty == old_result.faulty
    assert new_result.metrics.summary() == old_result.metrics.summary()
    assert (
        new_result.metrics.bits_per_round == old_result.metrics.bits_per_round
    )


def test_sqrt_n_slots_on_the_paper_graph_match_at_n_64():
    """One fixed case at Algorithm 1's own shape (``ceil(sqrt n)`` slots)."""
    args = (64, 12, math.isqrt(63) + 1, 6, 4, "random-0.3", 5)
    _, old_copies, old_result = run(reference_group_bits_spreading, *args)
    _, new_copies, new_result = run(group_bits_spreading, *args)
    assert new_copies.sent == old_copies.sent
    assert new_result.metrics.summary() == old_result.metrics.summary()


def test_links_silenced_mid_epoch_and_in_a_later_epoch():
    """The live tuple is rebuilt in the round a link dies — in the middle
    of the first run, then again in the second, on the carried-over state —
    and nothing is ever queued for a dead link again."""
    args = (24, 6, 5, 5, 1, "eclipse-schedule", 4)
    old_processes, old_copies, _ = run(reference_group_bits_spreading, *args)
    new_processes, new_copies, _ = run(group_bits_spreading, *args)
    assert new_copies.sent == old_copies.sent
    assert new_copies.delivered == old_copies.delivered
    victim = new_processes[0]
    first, second = victim.disregarded_after
    assert len(first) == 1 and len(second) == 2 and first < second
    assert [p.disregarded_after for p in new_processes] == [
        p.disregarded_after for p in old_processes
    ]
    assert [p.results for p in new_processes] == [p.results for p in old_processes]
    # Seed 4 starts the first eclipse in round 1 + 4 % 3 = 2 (0-based): the
    # victim still sends on the link that round, and never after.
    (dead,) = first
    assert any((0, dead) == (s, r) for s, r, _, _ in new_copies.sent[2])
    for round_copies in new_copies.sent[3:]:
        assert (0, dead) not in {(s, r) for s, r, _, _ in round_copies}


def test_equal_payloads_on_non_adjacent_links_are_not_merged():
    """Neighbours 1 and 3 are owed the same pack, 2 between them only a
    heartbeat: merging 1 and 3 into one multicast would put 3's copy ahead
    of 2's and permute the flat copy order every omission schedule indexes."""
    env = ProcessEnv(0, 4, CountingRandom(0))
    state = SpreadingState(neighbors=(1, 2, 3))
    program = group_bits_spreading(env, state, 2, 0, (5, 6), 2, 0)

    next(program)
    (first,) = queued(env)  # the same fresh pack to all three: one run
    assert first.recipients == (1, 2, 3)
    clear(env)

    heartbeat = (TAG_PACK, ())
    # Round 2 is queued before the generator asks for its next inbox.
    program.send([
        Message(1, 0, heartbeat),
        Message(2, 0, (TAG_PACK, ((1, 7, 8),))),
        Message(3, 0, heartbeat),
    ])
    pack = (TAG_PACK, ((1, 7, 8),))
    outbox = queued(env)
    flat = [
        (recipient, record.payload)
        for record in outbox
        for recipient in record.recipients
    ]
    assert flat == [(1, pack), (2, heartbeat), (3, pack)]
    assert [record.recipients for record in outbox] == [(1,), (2,), (3,)]
    assert outbox[0].payload is outbox[2].payload
    with pytest.raises(StopIteration):
        program.send([])


def test_algorithm1_queues_a_fifth_of_the_per_link_records():
    """Count guard: one fault-free ``algorithm1`` n=64 run (seed 3) queued
    93 200 outbox records for its 113 832 copies while spreading sent per
    link; with heartbeats and equal packs riding run multicasts it is under
    a fifth of that, for exactly the same copies."""

    class OutboxRecords(RoundObserver):
        records = copies = 0

        def on_messages_sent(self, round_no, outbound, network):
            self.records += len(outbound.senders)
            self.copies += len(outbound)

    counter = OutboxRecords()
    execute(
        "algorithm1", [pid % 2 for pid in range(64)], seed=3,
        observers=[counter],
    )
    assert counter.copies == 113_832
    assert counter.records < 93_200 // 5


def drive(spreading, inboxes):
    """Pid 0 with neighbours 1..3 and four slots, its own slot 0, run for
    ``len(inboxes)`` rounds on the given inboxes; returns the flat copies
    ``(recipient, payload, bits)`` it queued each round, its result and
    its state."""
    env = ProcessEnv(0, 4, CountingRandom(0))
    state = SpreadingState(neighbors=(1, 2, 3))
    program = spreading(env, state, 4, 0, (5, 6), len(inboxes), 0)
    next(program)
    sent = []
    for inbox in inboxes:
        sent.append([
            (recipient, record.payload, record.bits)
            for record in queued(env)
            for recipient in record.recipients
        ])
        clear(env)
        try:
            program.send(inbox)
        except StopIteration as done:
            return sent, done.value, state
    raise AssertionError("the run outlived its rounds")


def test_a_link_owed_two_slots_fewer_takes_the_general_build():
    """Round 2's fresh pack holds slots 1, 2 and 3: link 1 sent two of
    them (its pack drops two slots: no single tuple slice), link 2 sent
    one (a slice), link 3 none (the whole fresh pack).  Every copy equals
    the per-link original's, payload and bits."""
    heartbeat = (TAG_PACK, ())
    inboxes = [
        [
            Message(1, 0, (TAG_PACK, ((1, 1, 0), (2, 0, 1)))),
            Message(2, 0, (TAG_PACK, ((3, 1, 1),))),
            Message(3, 0, heartbeat),
        ],
        [Message(1, 0, heartbeat), Message(2, 0, heartbeat), Message(3, 0, heartbeat)],
    ]
    new = drive(group_bits_spreading, inboxes)
    old = drive(reference_group_bits_spreading, inboxes)
    assert new[0] == old[0]
    assert new[1] == old[1]
    second = {recipient: payload for recipient, payload, _ in new[0][1]}
    assert second == {
        1: (TAG_PACK, ((3, 1, 1),)),
        2: (TAG_PACK, ((1, 1, 0), (2, 0, 1))),
        3: (TAG_PACK, ((1, 1, 0), (2, 0, 1), (3, 1, 1))),
    }


def test_a_neighbour_disregarded_mid_phase():
    """Link 2 is silent in round 1 and never used again; the fresh packs
    of rounds 2 and 3 are cut for the two live links only, as the per-link
    original queues them."""
    heartbeat = (TAG_PACK, ())
    inboxes = [
        [Message(1, 0, (TAG_PACK, ((1, 1, 0),))), Message(3, 0, heartbeat)],
        [Message(1, 0, heartbeat), Message(3, 0, (TAG_PACK, ((2, 0, 1), (1, 1, 0))))],
        [Message(1, 0, heartbeat), Message(3, 0, heartbeat)],
    ]
    new = drive(group_bits_spreading, inboxes)
    old = drive(reference_group_bits_spreading, inboxes)
    assert new[0] == old[0]
    assert new[1] == old[1]
    assert new[2].disregarded == old[2].disregarded == {2}
    assert [sorted({r for r, _, _ in copies}) for copies in new[0]] == [
        [1, 2, 3], [1, 3], [1, 3]
    ]
