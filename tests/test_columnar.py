"""The columnar (numpy) delivery plan: layout, laziness, golden equivalence.

Every batch takes the columnar plan (``repro.runtime.delivery``); the
object-per-copy loop it replaced is the oracle in
``tests/delivery_oracle.py``, and both must produce *byte-identical*
executions: same decisions, same rounds, same value for every
:class:`Metrics` counter, same flat omit indices, same replay
fingerprints.  The differentials run over a 2x2 grid — how processes spell
a fan-out (``env.broadcast`` records vs. the explicit ``env.send`` loop) x
which delivery path serves every batch — pinned through test seams
(:func:`engine_cell`), not options.  These tests also pin the columnar
layout itself (arrays match a naive per-copy enumeration), the lazy
``Message`` views (inboxes materialize only when read), a run mixing both
paths batch by batch (it equals both pinned runs), the
metering-precedence and duplicate-omit bugfixes, and the randomized
differential property over :class:`ChaosAdversary` schedules.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import pytest

from repro.adversary import (
    ChaosAdversary,
    RandomOmissionAdversary,
    SilenceAdversary,
)
from repro.baselines.ben_or import BenOrVotingProcess
from repro.harness import ExecutionConfig, execute
from repro.replay import InvariantObserver, load_recipe, record, replay
from repro.runtime import (
    Adversary,
    AdversaryAction,
    AdversaryProtocolError,
    ColumnarBatch,
    LazyMessageList,
    Message,
    MessageBatch,
    Multicast,
    RoundObserver,
    SyncNetwork,
    SyncProcess,
    canonical_omissions,
    delivery,
    inbox_payloads,
    inbox_senders,
    result_to_dict,
)
from repro.runtime.columnar import (
    ColumnInbox,
    inbox_columns,
    plan_delivery,
)
from repro.transport.framing import decode_body, encode_frame

from .delivery_oracle import deliver_objects, pin_object_loop
from .test_multicast import Broadcaster, ScriptedOmitter, use_send_loops
from .test_replay import GOLDEN

#: (broadcast, columnar): fan-outs queued as Multicast records or as
#: explicit env.send loops x every batch on the columnar plan or on the
#: object loop.
ENGINE_GRID = [
    (broadcast, columnar)
    for broadcast in (True, False)
    for columnar in (True, False)
]


def pin_delivery(patch: pytest.MonkeyPatch, columnar: bool) -> None:
    """Send every batch down one delivery path: the engine's columnar plan,
    or the oracle's object loop — a test seam, not an option."""
    if not columnar:
        pin_object_loop(patch)


@contextmanager
def engine_cell(broadcast: bool, columnar: bool):
    """Run the enclosed executions in one cell of :data:`ENGINE_GRID`."""
    with pytest.MonkeyPatch.context() as patch:
        if not broadcast:
            use_send_loops(patch)
        pin_delivery(patch, columnar)
        yield


def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def mixed_batch() -> MessageBatch:
    return MessageBatch(
        [
            Message(0, 3, (1, 2)),
            Multicast(1, (0, 2, 3), (7,)),
            Message(2, 1, 9),
            Multicast(3, (1,), "x"),
        ]
    )


# ---------------------------------------------------------------------------
# The columnar layout itself.
class TestColumnarBatch:
    def test_columns_match_naive_enumeration(self):
        batch = mixed_batch()
        cols = batch.columns()
        flat = list(batch)
        assert cols.total_copies == len(batch)
        assert cols.copy_sender.tolist() == [m.sender for m in flat]
        assert cols.copy_recipient.tolist() == [m.recipient for m in flat]
        assert cols.copy_bits.tolist() == [m.bits for m in flat]
        assert cols.rec_payload.tolist() == [r.payload for r in batch.records]
        assert cols.total_bits() == batch.total_bits()

    def test_copy_record_indexes_the_payload_table(self):
        batch = mixed_batch()
        cols = batch.columns()
        for index in range(len(batch)):
            record_position = int(cols.copy_record[index])
            assert batch.records[record_position].payload is (
                batch[index].payload
            )

    def test_columns_are_cached_per_batch(self):
        batch = mixed_batch()
        assert batch.columns() is batch.columns()

    def test_fanout_cache_reuses_tuple_conversions(self):
        recipients = (0, 2, 3)
        cache: dict = {}
        first = ColumnarBatch.from_records(
            [Multicast(1, recipients, (7,))], cache
        )
        second = ColumnarBatch.from_records(
            [Multicast(4, recipients, (9,))], cache
        )
        assert len(cache) == 1
        assert first.copy_recipient.tolist() == (
            second.copy_recipient.tolist()
        )

    def test_empty_batch(self):
        cols = MessageBatch([]).columns()
        assert cols.total_copies == 0
        assert cols.total_bits() == 0


class TestLazyMessageList:
    def test_len_and_bool_do_not_materialize(self):
        batch = mixed_batch()
        cols = batch.columns()
        view = LazyMessageList(cols)
        assert len(view) == len(batch)
        assert bool(view)
        assert view._items is None

    def test_materialized_views_match_object_path(self):
        import numpy as np

        batch = mixed_batch()
        cols = batch.columns()
        view = LazyMessageList(cols, np.arange(len(batch)))
        for lazy, eager in zip(view, batch):
            assert (lazy.sender, lazy.recipient, lazy.bits) == (
                eager.sender,
                eager.recipient,
                eager.bits,
            )
            assert lazy.payload is eager.payload
        assert view._items is not None
        assert view[0] is view[0]  # cached after first access


class TestPlanDelivery:
    def test_clean_round_delivers_everything_grouped(self):
        batch = mixed_batch()
        plan = plan_delivery(batch.columns(), (), None)
        assert plan.delivered_bits == batch.total_bits()
        assert plan.lost_bits == 0
        assert len(plan.lost) == 0
        owners = [owner for owner, _ in plan.inboxes]
        assert owners == sorted(owners)
        grouped = {
            owner: [(m.sender, m.recipient) for m in inbox]
            for owner, inbox in plan.inboxes
        }
        want: dict[int, list[tuple[int, int]]] = {}
        for message in batch:
            want.setdefault(message.recipient, []).append(
                (message.sender, message.recipient)
            )
        assert grouped == want

    def test_omission_precedence_over_terminated_recipient(self):
        # Copy 1 (1 -> 0) is both omitted and addressed to a terminated
        # recipient: it must count as omitted (excluded from delivered
        # AND from lost).  Copy 0 (0 -> 3) to the live world delivers;
        # the un-omitted copy to recipient 0 is lost.
        batch = mixed_batch()
        live = [False, True, True, True]
        plan = plan_delivery(batch.columns(), (1,), live)
        delivered = [(m.sender, m.recipient) for m in plan.delivered]
        lost = [(m.sender, m.recipient) for m in plan.lost]
        assert (1, 0) not in delivered and (1, 0) not in lost
        assert lost == []  # no other copy addresses recipient 0
        assert len(delivered) == len(batch) - 1

    def test_lost_copies_in_flat_order(self):
        batch = MessageBatch(
            [Multicast(1, (0, 2, 0), (7,)), Message(2, 0, 5)]
        )
        live = [False, True, True]
        plan = plan_delivery(batch.columns(), (), live)
        assert [(m.sender, m.recipient) for m in plan.lost] == [
            (1, 0),
            (1, 0),
            (2, 0),
        ]
        assert plan.lost_bits == sum(m.bits for m in plan.lost)
        assert plan.delivered_bits == sum(m.bits for m in plan.delivered)


# ---------------------------------------------------------------------------
# The column read: payloads / senders of an inbox without its Messages.
def all_to_all(n: int) -> MessageBatch:
    return MessageBatch(
        [
            Multicast(
                pid,
                tuple(other for other in range(n) if other != pid),
                (7, pid),
            )
            for pid in range(n)
        ]
    )


#: (batch, omitted, live) — the rounds the plan tests above deliver.
INBOX_ROUNDS = {
    "clean-all-to-all": (all_to_all(6), (), None),
    "omission+terminated": (mixed_batch(), (1,), [False, True, True, True]),
    "lost-copies": (
        MessageBatch([Multicast(1, (0, 2, 0), (7,)), Message(2, 0, 5)]),
        (),
        [False, True, True],
    ),
    "hand-built-unsorted": (
        MessageBatch([Message(2, 0, "b"), Multicast(0, (1, 2, 1), "a")]),
        (),
        None,
    ),
}


def deliver_round(name, inboxes):
    """Deliver one :data:`INBOX_ROUNDS` round; the batch out of sender
    order is refused, on either path, and leaves every inbox empty."""
    batch, omitted, live = INBOX_ROUNDS[name]
    if name != "hand-built-unsorted":
        return delivery.Delivery().deliver(batch, omitted, inboxes, live)
    with pytest.raises(ValueError, match="non-decreasing sender order"):
        delivery.Delivery().deliver(batch, omitted, inboxes, live)
    assert inboxes == [[]] * len(inboxes)
    return None


class TestInboxColumns:
    @pytest.mark.parametrize("columnar", [True, False])
    @pytest.mark.parametrize("name", INBOX_ROUNDS)
    def test_columns_equal_message_attributes(
        self, monkeypatch, name, columnar
    ):
        """One spelling, both inbox kinds: lazy views off the columnar
        plan, plain lists off the object loop."""
        pin_delivery(monkeypatch, columnar)
        batch, omitted, _ = INBOX_ROUNDS[name]
        inboxes: list = [[] for _ in range(6)]
        receipt = deliver_round(name, inboxes)
        if receipt is None:
            return
        lazy = columnar
        read = 0
        for view in (*inboxes, receipt.delivered, receipt.lost):
            assert isinstance(view, LazyMessageList) == (lazy and bool(view))
            payloads, senders = inbox_payloads(view), inbox_senders(view)
            if isinstance(view, LazyMessageList):
                assert view._items is None  # nothing built, nothing cached
            assert senders == [message.sender for message in view]
            assert len(payloads) == len(view)
            for payload, message in zip(payloads, view):
                assert payload is message.payload
            read += len(view)
        # Every surviving copy was read: in an inbox and as delivered, or
        # as lost.
        assert read == 2 * len(receipt.delivered) + len(receipt.lost)
        assert len(receipt.delivered) + len(receipt.lost) == (
            len(batch) - len(omitted)
        )

    @pytest.mark.parametrize("columnar", [True, False])
    @pytest.mark.parametrize("name", INBOX_ROUNDS)
    def test_wire_columns_rebuild_the_inbox(self, monkeypatch, name, columnar):
        """The wire oracle: what a TCP step frame ships per hosted inbox
        (``inbox_columns``), through the frame codec and into the view a
        worker hands its program, is the coordinator's inbox — all four
        ``Message`` fields, in order — for lazy views, plain lists and
        the empty inbox alike."""
        pin_delivery(monkeypatch, columnar)
        inboxes: list = [[] for _ in range(8)]
        deliver_round(name, inboxes)
        # No round above addresses pids 6 and 7: a hand-built plain list
        # and the empty inbox.
        inboxes[6] = [Message(3, 6, ("late", 1), 9), Message(0, 6, None)]
        assert inboxes[7] == []
        for pid, inbox in enumerate(inboxes):
            columns = inbox_columns(inbox)
            if isinstance(inbox, LazyMessageList):
                assert inbox._items is None  # gathered, never built
            senders, payloads, bits = decode_body(encode_frame(columns)[4:])
            assert (senders, payloads, bits) == columns
            view = ColumnInbox(pid, (senders, payloads, bits))
            assert len(view) == len(inbox) and bool(view) == bool(inbox)
            assert inbox_senders(view) is senders
            assert inbox_payloads(view) is payloads
            assert view._items is None  # column reads build no Message
            fields = [(m.sender, m.recipient, m.payload, m.bits) for m in view]
            assert fields == [
                (m.sender, m.recipient, m.payload, m.bits) for m in inbox
            ]
            assert [view[i] for i in range(len(view))] == list(view)

    def test_counting_protocol_never_materializes(self, materialized):
        """Ben-Or reads its inboxes by column: a dense run under random
        omission constructs no per-copy Message (the parent materialized
        every inbox once)."""
        run = execute(
            "ben-or",
            [pid % 2 for pid in range(64)],
            t=8,
            adversary=RandomOmissionAdversary(0.6, seed=2),
            seed=2,
        )
        assert run.result.metrics.messages_omitted > 0
        assert materialized == []

    def test_tradeoff_flood_never_materializes(self, materialized):
        """Algorithm 4's flood, safety count and decision scans read by
        column (the parent materialized every inbox of every flood round);
        unanimous inputs, so no Dolev-Strong fallback runs."""
        run = execute("tradeoff", [1] * 64, x=4, seed=2)
        assert not run.ran_deterministic_fallback
        assert run.result.metrics.messages_sent > 0
        assert materialized == []


# ---------------------------------------------------------------------------
# Engine integration: the 2x2 grid is byte-identical end to end.
class TestEngineGridEquivalence:
    def ben_or_result(self, broadcast, columnar):
        with engine_cell(broadcast, columnar):
            network = SyncNetwork(
                [BenOrVotingProcess(pid, 24, pid % 2) for pid in range(24)],
                adversary=SilenceAdversary(range(4)),
                t=4,
                seed=6,
            )
            return network.run()

    def test_ben_or_identical_across_grid(self):
        prints = {
            cell: canonical(self.ben_or_result(*cell)) for cell in ENGINE_GRID
        }
        assert len(set(prints.values())) == 1

    def test_scripted_omissions_identical_across_grid(self):
        prints = []
        inbox_logs = []
        for cell in ENGINE_GRID:
            network = SyncNetwork(
                [Broadcaster(pid, 4) for pid in range(4)],
                adversary=ScriptedOmitter(
                    corrupt=[0], omit_by_round={0: [1], 1: [0, 2]}
                ),
                t=1,
            )
            with engine_cell(*cell):
                prints.append(canonical(network.run()))
            inbox_logs.append(
                [process.inboxes for process in network.processes]
            )
        assert len(set(prints)) == 1
        assert all(log == inbox_logs[0] for log in inbox_logs)

    def test_omit_validation_errors_match_object_path(self):
        for omit, fragment in (
            ([12], "out of range"),
            ([4], "touches none"),
        ):
            errors = []
            for columnar in (True, False):
                network = SyncNetwork(
                    [Broadcaster(pid, 4) for pid in range(4)],
                    adversary=ScriptedOmitter(
                        corrupt=[0], omit_by_round={0: omit}
                    ),
                    t=1,
                )
                with engine_cell(True, columnar), pytest.raises(
                    AdversaryProtocolError
                ) as excinfo:
                    network.run()
                errors.append(str(excinfo.value))
            assert errors[0] == errors[1]
            assert fragment in errors[0]

    def test_mixed_legal_illegal_names_first_sorted_offender(self):
        # Sorted-order semantics: with {3 (legal), 12 (out of range)} the
        # offender named must be 12 on both paths; with {4 (illegal
        # endpoints), 12} the range error at 12 fires only after 4's
        # endpoint check passes -- 4 is first in sorted order and must win.
        errors = {}
        for columnar in (True, False):
            network = SyncNetwork(
                [Broadcaster(pid, 4) for pid in range(4)],
                adversary=ScriptedOmitter(
                    corrupt=[0], omit_by_round={0: [4, 12]}
                ),
                t=1,
            )
            with engine_cell(True, columnar), pytest.raises(
                AdversaryProtocolError
            ) as excinfo:
                network.run()
            errors[columnar] = str(excinfo.value)
        assert errors[True] == errors[False]
        assert "1->2" in errors[True]


class SilentSink(SyncProcess):
    """Broadcasts every round but never reads a single inbox message."""

    rounds = 3

    def program(self, env):
        for _ in range(self.rounds):
            env.broadcast((self.pid,))
            yield
        env.decide(0)


class InboxSpy(RoundObserver):
    def __init__(self):
        self.delivered_types: list[type] = []
        self.unmaterialized = 0

    def on_deliveries(self, round_no, delivered, lost, network):
        self.delivered_types.append(type(delivered))
        if (
            isinstance(delivered, LazyMessageList)
            and delivered._items is None
        ):
            self.unmaterialized += 1


class TestLazyDelivery:
    def test_unread_inboxes_never_materialize(self):
        spy = InboxSpy()
        network = SyncNetwork(
            [SilentSink(pid, 8) for pid in range(8)],
            observers=[spy],
        )
        result = network.run()
        # Every delivery round handed observers a lazy view, and since the
        # metrics observer only needs len() + the engine's bit totals, no
        # per-copy Message was ever constructed.
        assert spy.delivered_types == [LazyMessageList] * SilentSink.rounds
        assert spy.unmaterialized == SilentSink.rounds
        assert result.metrics.messages_delivered == 8 * 7 * SilentSink.rounds

    def test_hand_built_unsorted_batch_is_refused(self):
        """A hand-built batch out of sender order (the engine never builds
        one) is refused before any copy moves, with the same message from
        the engine and from the object-loop oracle."""
        unsorted = MessageBatch(
            [Message(2, 0, "b"), Multicast(0, (1, 2, 0), "a")]
        )
        errors = []
        for deliver in (delivery.Delivery().deliver, deliver_objects):
            inboxes: list = [[] for _ in range(3)]
            with pytest.raises(ValueError) as raised:
                deliver(unsorted, (2,), inboxes, None)
            assert inboxes == [[], [], []]
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert "non-decreasing sender order" in errors[0]


# ---------------------------------------------------------------------------
# One run may cross both paths, batch by batch.
class TestPerBatchRule:
    def test_run_crossing_both_paths_equals_both_pinned_runs(self, monkeypatch):
        """Algorithm 1 at n=64 talks per-link over its spreading graph
        (fan-out 1) and all-to-all in its announce rounds (fan-out n-1).
        A run that sends fan-outs below 4 down the object loop and the
        rest down the columnar plan — plain lists and lazy views side by
        side — equals the runs pinned to either path."""
        served = {"columnar": 0, "object": 0}
        columnar_deliver = delivery.Delivery.deliver

        def mixed_deliver(self, batch, omitted, inboxes, live):
            if len(batch) < 4 * len(batch.records):
                served["object"] += 1
                return deliver_objects(batch, omitted, inboxes, live)
            served["columnar"] += 1
            return columnar_deliver(self, batch, omitted, inboxes, live)

        def run():
            return canonical(
                execute(
                    "algorithm1", [pid % 2 for pid in range(64)], seed=3
                ).result
            )

        with monkeypatch.context() as patch:
            patch.setattr(delivery.Delivery, "deliver", mixed_deliver)
            mixed = run()
        assert served["columnar"] > 0 and served["object"] > 0
        for columnar in (True, False):
            with engine_cell(True, columnar):
                assert run() == mixed


# ---------------------------------------------------------------------------
# Bugfix: metering precedence (omitted beats lost) on every engine path.
class Quitter(SyncProcess):
    """Broadcasts once and terminates immediately (before delivery)."""

    def program(self, env):
        env.broadcast((self.pid,))
        env.decide(0)
        return
        yield  # pragma: no cover - makes this a generator

class Talker(SyncProcess):
    """Broadcasts once, reads one inbox, decides."""

    def __init__(self, pid, n):
        super().__init__(pid, n)
        self.heard: list[tuple[int, int]] = []

    def program(self, env):
        env.broadcast((self.pid,))
        inbox = yield
        self.heard = [(m.sender, m.recipient) for m in inbox]
        env.decide(0)


class TestMeteringPrecedence:
    """Round-0 batch (n=3, all-to-all): flat index 2 is the 1 -> 0 copy,
    flat index 4 the 2 -> 0 copy.  Process 0 terminates during round 0's
    local phase, so both copies address a terminated recipient; the
    adversary corrupts 1 and omits index 2.  The overlap copy must count
    as omitted (not lost, not dropped from the identity), the un-omitted
    copy 4 as lost."""

    def run_cell(self, broadcast, columnar):
        processes = [
            Quitter(0, 3),
            Talker(1, 3),
            Talker(2, 3),
        ]
        network = SyncNetwork(
            processes,
            adversary=ScriptedOmitter(corrupt=[1], omit_by_round={0: [2]}),
            t=1,
            observers=[InvariantObserver()],
        )
        with engine_cell(broadcast, columnar):
            return network, network.run()

    @pytest.mark.parametrize("broadcast,columnar", ENGINE_GRID)
    def test_overlap_copy_is_omitted_not_lost(self, broadcast, columnar):
        network, result = self.run_cell(broadcast, columnar)
        metrics = result.metrics
        assert metrics.messages_sent == 6
        assert metrics.messages_omitted == 1
        assert metrics.messages_lost == 1  # only the 2 -> 0 copy
        assert metrics.messages_delivered == 4
        assert (
            metrics.messages_delivered
            + metrics.messages_omitted
            + metrics.messages_lost
            == metrics.messages_sent
        )

    def test_fingerprints_identical_across_grid(self):
        prints = {
            cell: canonical(self.run_cell(*cell)[1]) for cell in ENGINE_GRID
        }
        assert len(set(prints.values())) == 1


# ---------------------------------------------------------------------------
# Bugfix: duplicate omit indices are canonicalized at one choke point.
class DuplicateOmitter(Adversary):
    """Emits the same flat omit index three times in round 0 (legal per
    the model -- omitting a message twice is omitting it once -- but
    previously double-counted by metering and recorded verbatim)."""

    def act(self, view):
        if view.round == 0:
            return AdversaryAction(
                corrupt=frozenset({0}), omit=(1, 1, 1)  # type: ignore[arg-type]
            )
        return AdversaryAction.nothing()


class TestDuplicateOmissions:
    def test_canonical_omissions_sorts_and_dedupes(self):
        assert canonical_omissions([3, 1, 3, 3, 2]) == (1, 2, 3)
        assert canonical_omissions(()) == ()

    @pytest.mark.parametrize("broadcast,columnar", ENGINE_GRID)
    def test_duplicates_meter_and_execute_as_one(self, broadcast, columnar):
        def run(adversary):
            network = SyncNetwork(
                [Broadcaster(pid, 4) for pid in range(4)],
                adversary=adversary,
                t=1,
                observers=[InvariantObserver()],
            )
            with engine_cell(broadcast, columnar):
                return network.run()

        duplicated = run(DuplicateOmitter())
        deduped = run(ScriptedOmitter(corrupt=[0], omit_by_round={0: [1]}))
        assert duplicated.metrics.messages_omitted == 1
        assert canonical(duplicated) == canonical(deduped)

    def test_recorded_recipe_round_trips_through_strict_replay(self):
        recorded = record(
            ExecutionConfig("ben-or", [pid % 2 for pid in range(8)], t=1, seed=3),
            DuplicateOmitter(),
        )
        assert not recorded.failed
        (action,) = [a for a in recorded.recipe.actions if a.omit]
        assert action.omit == (1,)  # canonical in the recording itself
        for cell in ENGINE_GRID:
            with engine_cell(*cell):
                report = replay(recorded.recipe, strict=True)
            assert report.ok, report.summary()

    def test_legacy_recipe_with_duplicates_parses_canonical(self):
        from repro.replay.recipe import recipe_from_payload, recipe_payload

        recorded = record(
            ExecutionConfig("ben-or", [pid % 2 for pid in range(8)], t=1, seed=3),
            DuplicateOmitter(),
        )
        payload = recipe_payload(recorded.recipe)
        # Simulate a pre-canonicalization artifact with raw duplicates.
        for entry in payload["actions"]:
            if entry["omit"]:
                entry["omit"] = [1, 1, 1]
        parsed = recipe_from_payload(payload)
        (action,) = [a for a in parsed.actions if a.omit]
        assert action.omit == (1,)
        assert replay(parsed, strict=True).ok


# ---------------------------------------------------------------------------
# Randomized differential property: chaos schedules across the grid.
CHAOS_CELLS = [
    ("ben-or", 21, 4, seed) for seed in (0, 1, 2, 3)
] + [("phase-king", 13, 3, seed) for seed in (0, 1, 2)]


class TestChaosDifferential:
    @pytest.mark.parametrize("protocol,n,t,seed", CHAOS_CELLS)
    def test_columnar_matches_object_engine(self, protocol, n, t, seed):
        """Same protocol, same seed, a fresh ChaosAdversary per engine
        config (its RNG is stateful): decisions, rounds, every metrics
        counter, and the full serialized result must agree across the
        whole send-spelling x delivery-path grid."""
        inputs = [pid % 2 for pid in range(n)]
        prints = {}
        for cell in ENGINE_GRID:
            with engine_cell(*cell):
                run = execute(
                    protocol,
                    inputs,
                    t=t,
                    adversary=ChaosAdversary(seed=seed),
                    seed=seed,
                )
            prints[cell] = canonical(run.result)
        assert len(set(prints.values())) == 1

    @pytest.mark.parametrize("protocol,n,t,seed", CHAOS_CELLS[:2] + CHAOS_CELLS[-1:])
    def test_chaos_recording_replays_across_grid(self, protocol, n, t, seed):
        inputs = [pid % 2 for pid in range(n)]
        with engine_cell(True, True):
            recorded = record(
                ExecutionConfig(protocol, inputs, t=t, seed=seed),
                ChaosAdversary(seed=seed),
            )
        assert not recorded.failed
        for cell in ENGINE_GRID:
            with engine_cell(*cell):
                report = replay(recorded.recipe)
            assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# The golden artifact certifies all four grid cells.
class TestGoldenAcrossGrid:
    @pytest.mark.parametrize("broadcast,columnar", ENGINE_GRID)
    def test_golden_ben_or_replays_byte_identical(self, broadcast, columnar):
        with engine_cell(broadcast, columnar):
            report = replay(load_recipe(GOLDEN))
        assert report.ok, report.summary()
