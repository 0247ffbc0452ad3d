"""``GroupBitsAggregation`` (Algorithm 2) and its 3-round ``GroupRelay``.

Within one group ``W_i`` of the sqrt(n)-decomposition, operative processes
count how many operative group members hold candidate value 1 and 0,
aggregating up the binary bag tree (Figure 2).  Each tree stage runs the
3-round relay of Appendix B.1:

1. every operative *source* sends its current bag counts to all group
   members (the *transmitters* — all group members relay, operative or not,
   which is what keeps Lemma 7's quorum argument sound for non-faulty
   processes that have merely gone inoperative);
2. transmitters acknowledge the sources they heard; a source hearing at most
   ``|W|/group_relay_quorum_divisor`` (paper: 2) confirmations goes
   inoperative;
3. transmitters push the merged counts of each member's two child bags back;
   a source hearing fewer than ``|W|/r3 + 1`` goes inoperative.

The phase consumes exactly ``3 * stage_budget`` rounds on every code path —
processes in groups with shallower trees idle-pad — so the global network
stays in lockstep.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..params import ProtocolParams
from ..runtime import Message, ProcessEnv, Program, inbox_payloads, inbox_senders
from .partition import BagTree

#: Payload tags (small ints keep the metered bit sizes honest).
TAG_COUNTS = 1
TAG_ACK = 2
TAG_MERGED = 3

#: Divisor of the round-3 quorum: a source must hear from more than
#: ``|W| / GROUP_RELAY_R3_DIVISOR`` transmitters (Appendix B.1 uses 1/5).
GROUP_RELAY_R3_DIVISOR = 5


@dataclass
class AggregationResult:
    """Output of one ``GroupBitsAggregation`` execution for one process."""

    ones: int
    zeros: int
    operative: bool


def _first_counts(
    inbox: Sequence[Message],
) -> tuple[dict[int, tuple[int, int]], set[int]]:
    """Collect first-received (ones, zeros) per child bag, and the senders."""
    counts: dict[int, tuple[int, int]] = {}
    senders: set[int] = set()
    for sender, payload in zip(inbox_senders(inbox), inbox_payloads(inbox)):
        if not (isinstance(payload, tuple) and payload and payload[0] == TAG_COUNTS):
            continue
        senders.add(sender)
        _, child_index, ones, zeros = payload
        if child_index not in counts:
            counts[child_index] = (ones, zeros)
    return counts, senders


def group_bits_aggregation(
    env: ProcessEnv,
    group: tuple[int, ...],
    tree: BagTree,
    operative: bool,
    bit: int,
    params: ProtocolParams,
    stage_budget: int,
) -> Program:
    """Run Algorithm 2 for process ``env.pid``; returns
    :class:`AggregationResult`.

    ``stage_budget`` is the global (max over groups) number of stages; this
    generator always consumes ``3 * stage_budget`` rounds.
    """
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
            if params.group_relay_quorum_divisor * acks <= group_size:
                operative = False

        # ---- Round 3: transmitters push merged counts back to everyone. --
        # The members of one parent bag receive one merged payload, and the
        # stage's bags list the group in member order, so the walk is per
        # bag; consecutive bags with equal payloads share one multicast, so
        # records and flat recipient order are the per-member loop's.
        run_payload: tuple | None = None
        run_members: list[int] = []
        for index, bag in enumerate(tree.layers[stage]):
            if index == parent_index:
                bag = tuple(member for member in bag if member != pid)
                if not bag:
                    continue  # sends nothing, so it must not end a run
            m_left, m_right = tree.child_indices(stage, index)
            right_entry = stage_counts.get(m_right) if m_right is not None else None
            payload = (TAG_MERGED, stage_counts.get(m_left), right_entry)
            if payload != run_payload:
                if run_members:
                    env.send_many(run_members, run_payload)
                run_payload = payload
                run_members = []
            run_members += bag
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
