"""Unit tests for GroupBitsAggregation (Algorithm 2) via a harness network.

One group is simulated in isolation: every process runs only the
aggregation sub-protocol and reports its result as its decision.
"""

import pytest

from repro.adversary import RandomOmissionAdversary, SilenceAdversary
from repro.core import cached_bag_tree
from repro.core.aggregation import (
    GROUP_RELAY_R3_DIVISOR,
    TAG_ACK,
    TAG_COUNTS,
    TAG_MERGED,
    AggregationResult,
    _first_counts,
    group_bits_aggregation,
)
from repro.params import ProtocolParams
from repro.runtime import (
    ProcessEnv,
    RoundObserver,
    SyncNetwork,
    SyncProcess,
    inbox_payloads,
)

from .test_golden_dolev_strong import FlatCopyRecorder


class AggregationHarness(SyncProcess):
    """Runs one aggregation over the whole pid range as a single group."""

    aggregation = staticmethod(group_bits_aggregation)
    params = ProtocolParams.practical()

    def __init__(self, pid, n, bit, operative=True, stage_budget=None):
        super().__init__(pid, n)
        self.bit = bit
        self.operative_in = operative
        self.stage_budget = stage_budget
        self.result = None

    def program(self, env: ProcessEnv):
        group = tuple(range(self.n))
        tree = cached_bag_tree(group)
        budget = (
            self.stage_budget
            if self.stage_budget is not None
            else tree.num_stages
        )
        result = yield from self.aggregation(
            env,
            group,
            tree,
            self.operative_in,
            self.bit,
            self.params,
            budget,
        )
        self.result = result
        env.decide((result.ones, result.zeros, result.operative))
        return None


def run_group(
    bits, adversary=None, t=0, operative=None, stage_budget=None,
    harness=AggregationHarness, observers=(),
):
    n = len(bits)
    processes = [
        harness(
            pid,
            n,
            bits[pid],
            operative=True if operative is None else operative[pid],
            stage_budget=stage_budget,
        )
        for pid in range(n)
    ]
    network = SyncNetwork(
        processes, adversary=adversary, t=t, seed=1, observers=list(observers)
    )
    result = network.run()
    return result, processes


class TestFaultFreeAggregation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16])
    def test_exact_counts(self, n):
        bits = [pid % 2 for pid in range(n)]
        result, _ = run_group(bits)
        expected = (sum(bits), n - sum(bits), True)
        for pid in range(n):
            assert result.decisions[pid] == expected

    def test_all_ones(self):
        result, _ = run_group([1] * 9)
        assert result.decisions[0] == (9, 0, True)

    def test_all_zeros(self):
        result, _ = run_group([0] * 9)
        assert result.decisions[0] == (0, 9, True)

    def test_rounds_equal_three_per_stage(self):
        n = 8
        tree = cached_bag_tree(tuple(range(n)))
        result, _ = run_group([1] * n)
        assert result.rounds == 3 * tree.num_stages

    def test_stage_budget_padding_keeps_lockstep(self):
        """Groups padded to a larger global budget still return correctly."""
        result, _ = run_group([1, 0, 1], stage_budget=5)
        assert result.decisions[0] == (2, 1, True)
        assert result.rounds == 15


class TestRound2Quorum:
    def test_quorum_divisor_is_read(self):
        """A source stays operative only on more than |W|/divisor acks: a
        divisor of 1 asks for more acks than the group has members, so
        every aggregating process goes inoperative in stage 1."""

        class WholeGroupQuorum(AggregationHarness):
            params = ProtocolParams.practical().with_overrides(
                group_relay_quorum_divisor=1
            )

        bits = [pid % 2 for pid in range(8)]
        result, _ = run_group(bits, harness=WholeGroupQuorum)
        assert {result.decisions[pid][2] for pid in range(8)} == {False}
        result, _ = run_group(bits)
        assert {result.decisions[pid][2] for pid in range(8)} == {True}


class TestInoperativeInputs:
    def test_initially_inoperative_not_counted(self):
        bits = [1, 1, 1, 0, 0, 0]
        operative = [True, True, False, True, False, True]
        result, _ = run_group(bits, operative=operative)
        # pids 2 (bit 1) and 4 (bit 0) are not counted.
        for pid in (0, 1, 3, 5):
            assert result.decisions[pid] == (2, 2, True)

    def test_inoperative_returns_zero_counts(self):
        result, _ = run_group(
            [1, 1, 1, 1], operative=[True, True, True, False]
        )
        assert result.decisions[3] == (0, 0, False)

    def test_inoperative_still_relays(self):
        """An inoperative member still transmits, so operative members keep
        their quorums even when it is the only bridge... here simply: counts
        stay exact despite half the group being inoperative."""
        bits = [1, 0, 1, 0, 1, 0, 1, 0]
        operative = [True, False, True, False, True, False, True, False]
        result, _ = run_group(bits, operative=operative)
        assert result.decisions[0] == (4, 0, True)


class TestAggregationUnderOmissions:
    def test_silenced_member_not_counted_others_exact(self):
        """Silencing one faulty member: its bit disappears; the remaining
        operative processes agree on the reduced counts."""
        bits = [1, 1, 1, 1, 0, 0, 0, 0, 1]
        result, processes = run_group(
            bits, adversary=SilenceAdversary([4]), t=1
        )
        survivors = [pid for pid in range(9) if pid != 4]
        values = {result.decisions[pid] for pid in survivors}
        assert values == {(5, 3, True)}

    def test_silenced_member_goes_inoperative(self):
        bits = [1] * 9
        result, _ = run_group(bits, adversary=SilenceAdversary([2]), t=1)
        ones, zeros, operative = result.decisions[2]
        assert not operative

    def test_majority_silenced_group_collapses(self):
        """With more than half the group silenced, survivors lose the
        GroupRelay confirmation quorum and go inoperative (Lemma-7 edge)."""
        n = 9
        silenced = list(range(5))
        result, _ = run_group(
            [1] * n, adversary=SilenceAdversary(silenced), t=5
        )
        for pid in range(5, n):
            ones, zeros, operative = result.decisions[pid]
            assert not operative

    def test_counts_differ_at_most_by_knockouts(self):
        """Lemma 1/2 consequence: operative results differ by at most the
        number of processes that became inoperative."""
        bits = [pid % 2 for pid in range(16)]
        result, processes = run_group(
            bits, adversary=SilenceAdversary([1, 3]), t=2
        )
        operative_totals = [
            ones + zeros
            for (ones, zeros, operative) in result.decisions.values()
            if operative
        ]
        knocked_out = sum(
            1
            for (_, _, operative) in result.decisions.values()
            if not operative
        )
        assert max(operative_totals) - min(operative_totals) <= knocked_out


# ---------------------------------------------------------------------------
# Round 3 walks the stage's bags; the per-member original is the oracle.
def reference_group_bits_aggregation(
    env, group, tree, operative, bit, params, stage_budget
):
    """The original, whose round 3 walks the *members* (two ``bag_index`` /
    ``child_indices`` lookups each): the executable specification the
    per-bag walk is checked against."""
    pid = env.pid
    group_size = len(group)
    others = [member for member in group if member != pid]

    # Lines 1-4: operative processes seed their singleton bag with their bit.
    if operative and bit == 1:
        my_ones, my_zeros = 1, 0
    elif operative:
        my_ones, my_zeros = 0, 1
    else:
        my_ones, my_zeros = 0, 0

    for stage in range(1, stage_budget + 1):
        if stage > tree.num_stages:
            # Pad: this group's tree is shallower than the global budget.
            for _ in range(3):
                yield
            continue

        parent_index = tree.bag_index(stage, pid)
        my_child_index = tree.bag_index(stage - 1, pid)
        left_index, right_index = tree.child_indices(stage, parent_index)

        # ---- Round 1: sources broadcast their child-bag counts. ----------
        if operative:
            env.send_many(
                others, (TAG_COUNTS, my_child_index, my_ones, my_zeros)
            )
        inbox = yield
        stage_counts, round1_senders = _first_counts(inbox)
        if operative:
            # A process always knows its own contribution (no self-send).
            stage_counts.setdefault(my_child_index, (my_ones, my_zeros))

        # ---- Round 2: transmitters acknowledge the sources they heard. ---
        if round1_senders:
            env.send_many(round1_senders, (TAG_ACK,))
        inbox = yield
        if operative:
            # +1: a source always (implicitly) confirms itself.
            acks = 1 + sum(
                1
                for payload in inbox_payloads(inbox)
                if isinstance(payload, tuple)
                and payload
                and payload[0] == TAG_ACK
            )
            if 2 * acks <= group_size:
                operative = False

        # ---- Round 3: transmitters push merged counts back to everyone. --
        # Members of the same parent bag are contiguous in pid order and
        # receive identical merged payloads, so each run becomes one
        # multicast; the flat recipient order is the per-member loop's.
        run_payload: tuple | None = None
        run_members: list[int] = []
        for member in others:
            member_parent = tree.bag_index(stage, member)
            m_left, m_right = tree.child_indices(stage, member_parent)
            left_entry = stage_counts.get(m_left)
            right_entry = (
                stage_counts.get(m_right) if m_right is not None else None
            )
            payload = (TAG_MERGED, left_entry, right_entry)
            if payload == run_payload:
                run_members.append(member)
                continue
            if run_members:
                env.send_many(run_members, run_payload)
            run_payload = payload
            run_members = [member]
        if run_members:
            env.send_many(run_members, run_payload)
        inbox = yield
        if operative:
            merged = [
                payload
                for payload in inbox_payloads(inbox)
                if isinstance(payload, tuple)
                and payload
                and payload[0] == TAG_MERGED
            ]
            # +1: the process transmits to itself implicitly.
            heard = 1 + len(merged)
            if heard < group_size // GROUP_RELAY_R3_DIVISOR + 1:
                operative = False
            else:
                left_counts = stage_counts.get(left_index)
                right_counts = (
                    stage_counts.get(right_index)
                    if right_index is not None
                    else None
                )
                for _, left_entry, right_entry in merged:
                    if left_counts is None and left_entry is not None:
                        left_counts = tuple(left_entry)
                    if right_counts is None and right_entry is not None:
                        right_counts = tuple(right_entry)
                left_ones, left_zeros = left_counts or (0, 0)
                right_ones, right_zeros = right_counts or (0, 0)
                my_ones = left_ones + right_ones
                my_zeros = left_zeros + right_zeros

    if not operative:
        return AggregationResult(ones=0, zeros=0, operative=False)
    return AggregationResult(ones=my_ones, zeros=my_zeros, operative=True)


class ReferenceHarness(AggregationHarness):
    aggregation = staticmethod(reference_group_bits_aggregation)


class OutboxRecords(RoundObserver):
    """Per round: the fan-out of every queued record (its boundaries)."""

    def __init__(self):
        self.fanouts = []

    def on_messages_sent(self, round_no, outbound, network):
        self.fanouts.append(
            [getattr(r, "recipients", None) for r in outbound.records]
        )


ROUND3_ADVERSARIES = {
    "none": lambda n: (None, 0),
    "silence": lambda n: (SilenceAdversary([n - 1]), 1),
    "random": lambda n: (RandomOmissionAdversary(0.4, seed=n), n // 3),
}


class TestRound3WalksBags:
    # Odd sizes end a stage in a single-member bag, which is *empty* for
    # its own member; 2 and 16 are the degenerate and the full tree.
    @pytest.mark.parametrize("adversary", sorted(ROUND3_ADVERSARIES))
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 9, 13, 16, 17])
    def test_flat_copies_and_records_match_the_per_member_loop(
        self, n, adversary
    ):
        bits = [(pid * 7 + 3) % 5 % 2 for pid in range(n)]
        operative = [pid % 4 != 2 for pid in range(n)]
        runs = []
        for harness in (ReferenceHarness, AggregationHarness):
            copies, records = FlatCopyRecorder(), OutboxRecords()
            strategy, t = ROUND3_ADVERSARIES[adversary](n)
            result, processes = run_group(
                bits, adversary=strategy, t=t, operative=operative,
                harness=harness, observers=[copies, records],
            )
            runs.append((
                copies.sent, copies.delivered, records.fanouts,
                result.decisions, result.metrics.summary(),
            ))
        assert runs[0] == runs[1]
        assert runs[1][0][2]  # round 3 did queue copies

    def test_round3_lookups_are_per_bag(self, monkeypatch):
        """Count guard: one stage of a 16-member group costs a member 2
        ``bag_index`` calls (its own bags) and 1 + #bags ``child_indices``
        calls; the per-member loop paid 15 of each in round 3 alone."""
        from repro.core.partition import BagTree

        calls = {"bag_index": 0, "child_indices": 0}
        for name in calls:
            original = getattr(BagTree, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(BagTree, name, counted)
        run_group([pid % 2 for pid in range(16)])
        # 16 members x 4 stages; layers 1..4 hold 8 + 4 + 2 + 1 bags.
        assert calls == {
            "bag_index": 16 * 4 * 2,
            "child_indices": 16 * (4 + 8 + 4 + 2 + 1),
        }
