"""Multicast records: batch semantics and golden equivalence.

The engine's contract is that ``env.broadcast`` / ``env.send_many``
(queueing one :class:`Multicast` record) and the explicit loop of
``env.send`` calls they abbreviate (one eagerly-sized :class:`Message` per
copy) produce *byte-identical* executions: same decisions, same rounds,
same value for every :class:`Metrics` counter and per-round series, same
flat adversary omit indices.  These tests pin that contract down; the
send-loop side is test-local (:class:`LoopBroadcaster`,
:func:`use_send_loops`) since the engine no longer ships a per-copy send
path.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import SilenceAdversary
from repro.baselines.ben_or import BenOrVotingProcess
from repro.core import build_processes
from repro.runtime import (
    Adversary,
    AdversaryAction,
    AdversaryProtocolError,
    Message,
    MessageBatch,
    Multicast,
    NetworkView,
    ProcessEnv,
    SyncNetwork,
    SyncProcess,
    payload_bits,
    result_to_dict,
)
from repro.runtime.messages import MESSAGE_OVERHEAD_BITS


# ---------------------------------------------------------------------------
# MessageBatch: the flat per-copy sequence over mixed records.
def mixed_batch() -> MessageBatch:
    return MessageBatch(
        [
            Message(0, 3, (1, 2)),
            Multicast(1, (0, 2, 3), (7,)),
            Message(2, 1, 9),
        ]
    )


class TestMessageBatch:
    def test_len_counts_copies_not_records(self):
        batch = mixed_batch()
        assert len(batch.records) == 3
        assert len(batch) == 5

    def test_getitem_materializes_per_copy_views(self):
        batch = mixed_batch()
        endpoints = [(m.sender, m.recipient) for m in batch]
        assert endpoints == [(0, 3), (1, 0), (1, 2), (1, 3), (2, 1)]
        cols = batch.columns()
        for index in range(len(batch)):
            view = batch[index]
            assert (view.sender, view.recipient) == endpoints[index]
            assert (
                int(cols.copy_sender[index]), int(cols.copy_recipient[index])
            ) == endpoints[index]

    def test_negative_index_and_slice(self):
        batch = mixed_batch()
        assert (batch[-1].sender, batch[-1].recipient) == (2, 1)
        middle = batch[1:4]
        assert [(m.sender, m.recipient) for m in middle] == [
            (1, 0),
            (1, 2),
            (1, 3),
        ]

    def test_out_of_range_raises(self):
        batch = mixed_batch()
        with pytest.raises(IndexError):
            batch[5]
        with pytest.raises(IndexError):
            batch[-6]

    def test_total_bits_matches_per_copy_sum(self):
        batch = mixed_batch()
        assert batch.total_bits() == sum(m.bits for m in batch)

    def test_multicast_copies_share_payload_and_bits(self):
        batch = mixed_batch()
        copies = [batch[1], batch[2], batch[3]]
        expected = payload_bits((7,)) + MESSAGE_OVERHEAD_BITS
        for copy in copies:
            assert copy.payload is copies[0].payload
            assert copy.bits == expected

    def test_index_builders_match_naive_enumeration(self):
        batch = mixed_batch()
        by_sender: dict[int, list[int]] = {}
        by_recipient: dict[int, list[int]] = {}
        for index, message in enumerate(batch):
            by_sender.setdefault(message.sender, []).append(index)
            by_recipient.setdefault(message.recipient, []).append(index)
        assert batch.columns().copy_indices(by_sender, by_recipient) == (
            by_sender,
            by_recipient,
        )



class TestNetworkViewHelpers:
    def view(self, batch):
        return NetworkView(
            round=0,
            processes=(),
            messages=batch,
            faulty=frozenset(),
            budget_left=0,
            decisions={},
            terminated=frozenset(),
        )

    def test_helpers_answer_from_records(self):
        batch = mixed_batch()
        view = self.view(batch)
        assert view.message_indices_from([1]) == frozenset({1, 2, 3})
        assert view.message_indices_to([3]) == frozenset({0, 3})
        assert view.message_indices_touching([2]) == frozenset({2, 4})


# ---------------------------------------------------------------------------
# The redesigned ProcessEnv API.
class Broadcaster(SyncProcess):
    """Broadcasts (round, pid) every round and records its inboxes."""

    rounds = 3

    def __init__(self, pid, n):
        super().__init__(pid, n)
        self.inboxes: list[list[tuple[int, int]]] = []

    def program(self, env):
        for round_no in range(self.rounds):
            env.broadcast((round_no, self.pid))
            inbox = yield
            self.inboxes.append(
                [(m.sender, m.payload[0]) for m in inbox]
            )
        env.decide(0)


class LoopBroadcaster(Broadcaster):
    """:class:`Broadcaster` with the fan-out spelled as ``env.send`` calls."""

    def program(self, env):
        for round_no in range(self.rounds):
            for recipient in range(self.n):
                if recipient != self.pid:
                    env.send(recipient, (round_no, self.pid))
            inbox = yield
            self.inboxes.append(
                [(m.sender, m.payload[0]) for m in inbox]
            )
        env.decide(0)


def use_send_loops(monkeypatch) -> None:
    """Make every ``broadcast``/``send_many`` queue the explicit
    ``env.send`` loop it abbreviates, for protocols whose programs the
    test cannot rewrite (the reference side of the differentials).  A
    caller's ``size`` is taken and ignored: ``env.send`` sizes every copy
    with ``payload_bits``, so the differentials also certify presized
    sends."""

    def send_loop(env, recipients, payload, size=None):
        for recipient in recipients:
            env.send(recipient, payload)

    monkeypatch.setattr(ProcessEnv, "_queue_multicast", send_loop)


class TestEnvApi:
    def network(self, n=4, **kwargs):
        return SyncNetwork(
            [Broadcaster(pid, n) for pid in range(n)], **kwargs
        )

    def test_broadcast_queues_one_record_per_round(self):
        network = self.network(n=4)
        result = network.run()
        # 3 broadcast rounds of 4 senders x 3 recipients each.
        assert result.metrics.messages_sent == 36
        for process in network.processes:
            for round_no, inbox in enumerate(process.inboxes):
                assert inbox == [
                    (sender, round_no)
                    for sender in range(4)
                    if sender != process.pid
                ]

    def test_send_many_validates_all_recipients_first(self):
        network = self.network(n=3)
        env = network.envs[0]
        with pytest.raises(ValueError):
            env.send_many([1, 7], "x")
        assert env.outbox == []

    def test_send_many_empty_is_a_noop(self):
        network = self.network(n=3)
        env = network.envs[0]
        env.send_many([], "x")
        assert env.outbox == []

    def test_presized_send_many_queues_the_same_record(self):
        """``size`` is the payload's ``payload_bits``, overhead excluded:
        passing it changes no field of the queued record."""
        network = self.network(n=4)
        env = network.envs[0]
        payload = (4, ((1, 7, 8), (2, 0, 3)))
        env.send_many((3, 1), payload)
        env.send_many((3, 1), payload, size=payload_bits(payload))
        env.send_many([], payload, size=payload_bits(payload))  # still a no-op
        plain, presized = env.outbox
        assert type(presized) is Multicast
        for name in Multicast.__slots__:
            assert getattr(presized, name) == getattr(plain, name), name
        assert presized.bits == payload_bits(payload) + MESSAGE_OVERHEAD_BITS

    def test_broadcast_recipient_kwarg_and_include_self(self):
        network = self.network(n=4)
        env = network.envs[1]
        env.broadcast("a", recipients=(3, 0))
        env.broadcast("b", include_self=True)
        first, second = env.outbox
        assert first.recipients == (3, 0)
        assert second.recipients == (0, 1, 2, 3)

    def test_broadcast_matches_explicit_send_loop(self):
        """One Multicast record is, copy for copy, the env.send loop:
        same payload and same bits on every copy."""
        network = self.network(n=3)
        network.envs[0].broadcast((1, 2, 3))
        for recipient in (0, 2):
            network.envs[1].send(recipient, (1, 2, 3))
        (record,) = network.envs[0].outbox
        assert type(record) is Multicast
        copies = network.envs[1].outbox
        assert [type(copy) for copy in copies] == [Message, Message]
        assert [(c.payload, c.bits) for c in copies] == [
            (record.payload, record.bits)
        ] * len(record.recipients)


# ---------------------------------------------------------------------------
# Adversary omit indices address flat per-copy positions.
class ScriptedOmitter(Adversary):
    """Corrupts ``corrupt`` in round 0 and omits fixed flat indices."""

    def __init__(self, corrupt=(), omit_by_round=None):
        self.corrupt = frozenset(corrupt)
        self.omit_by_round = dict(omit_by_round or {})

    def act(self, view):
        return AdversaryAction(
            corrupt=self.corrupt if view.round == 0 else frozenset(),
            omit=frozenset(self.omit_by_round.get(view.round, ())),
        )


class TestOmitIndexValidation:
    def network(self, adversary, n=4, t=1):
        return SyncNetwork(
            [Broadcaster(pid, n) for pid in range(n)],
            adversary=adversary,
            t=t,
        )

    def test_omission_drops_exactly_the_indexed_copy(self):
        # Round-0 batch (n=4, all-to-all): sender 0's copies are flat
        # indices 0..2 in recipient order (1, 2, 3).  Omitting index 1
        # must drop exactly the 0 -> 2 copy.
        network = self.network(ScriptedOmitter(corrupt=[0], omit_by_round={0: [1]}))
        result = network.run()
        by_pid = {process.pid: process for process in network.processes}
        assert by_pid[2].inboxes[0] == [(1, 0), (3, 0)]
        assert by_pid[1].inboxes[0] == [(0, 0), (2, 0), (3, 0)]
        assert by_pid[3].inboxes[0] == [(0, 0), (1, 0), (2, 0)]
        assert result.metrics.messages_omitted == 1
        assert result.metrics.messages_delivered == (
            result.metrics.messages_sent - 1
        )

    def test_out_of_range_index_rejected(self):
        network = self.network(
            ScriptedOmitter(corrupt=[0], omit_by_round={0: [12]})
        )
        with pytest.raises(AdversaryProtocolError):
            network.run()

    def test_non_faulty_copy_rejected_even_within_a_multicast(self):
        # Index 4 is sender 1's copy to recipient 2 (recipients (0, 2, 3)
        # at flat indices 3..5).  Neither endpoint is faulty, so omitting
        # it is illegal even though the sibling copy at index 3 (1 -> 0,
        # the faulty process) would be fair game.
        legal = self.network(
            ScriptedOmitter(corrupt=[0], omit_by_round={0: [3]})
        )
        legal.run()
        illegal = self.network(
            ScriptedOmitter(corrupt=[0], omit_by_round={0: [4]})
        )
        with pytest.raises(AdversaryProtocolError):
            illegal.run()


# ---------------------------------------------------------------------------
# Golden equivalence: the two paths are byte-identical end to end.
def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestGoldenEquivalence:
    def test_algorithm1_under_omissions(self, monkeypatch):
        prints = []
        for send_loops in (False, True):
            if send_loops:
                use_send_loops(monkeypatch)
            network = SyncNetwork(
                build_processes([pid % 2 for pid in range(36)], t=1),
                adversary=SilenceAdversary([0]),
                t=1,
                seed=11,
            )
            prints.append(canonical(network.run()))
        assert prints[0] == prints[1]

    def test_ben_or_under_omissions(self, monkeypatch):
        prints = []
        for send_loops in (False, True):
            if send_loops:
                use_send_loops(monkeypatch)
            network = SyncNetwork(
                [
                    BenOrVotingProcess(pid, 24, pid % 2)
                    for pid in range(24)
                ],
                adversary=SilenceAdversary(range(4)),
                t=4,
                seed=6,
            )
            prints.append(canonical(network.run()))
        assert prints[0] == prints[1]

    def test_scripted_flat_indices_agree_across_paths(self):
        """The same explicit omit indices are legal and hit the same
        copies whether a process broadcasts or loops over ``env.send`` —
        the flat numbering, inbox order, and every Metrics counter are
        spelling-independent."""
        prints = []
        inbox_logs = []
        for process_cls in (Broadcaster, LoopBroadcaster):
            network = SyncNetwork(
                [process_cls(pid, 4) for pid in range(4)],
                adversary=ScriptedOmitter(
                    corrupt=[0], omit_by_round={0: [1], 1: [0, 2]}
                ),
                t=1,
            )
            prints.append(canonical(network.run()))
            inbox_logs.append(
                [process.inboxes for process in network.processes]
            )
        assert prints[0] == prints[1]
        assert inbox_logs[0] == inbox_logs[1]
