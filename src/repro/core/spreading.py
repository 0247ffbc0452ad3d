"""``GroupBitsSpreading`` (Algorithm 3): inter-group count dissemination.

After aggregation, each group holds a pair (operative ones, operative zeros).
Operative processes gossip these ``ceil(sqrt n)`` pairs along the
predetermined sparse spreading graph for ``Theta(log n)`` rounds, sending
each group's pair at most once per link.  A process that hears from fewer
than ``Delta/3`` of its (not yet disregarded) neighbours in a round becomes
inoperative and stays idle for the rest of the execution; links observed
silent are disregarded forever (Lemma 5 relies on this downward
monotonicity).

Heartbeats: a round with nothing new still sends an empty pack, because
neighbour liveness is judged by "did it deliver a message this round".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from ..runtime import ProcessEnv, Program, inbox_payloads, inbox_senders

TAG_PACK = 4


@dataclass
class SpreadingState:
    """Per-process state persisting across epochs: ``disregarded``
    implements the "never use this link again" rule."""

    neighbors: tuple[int, ...]
    disregarded: set[int] = field(default_factory=set)

    def live_neighbors(self) -> list[int]:
        return [v for v in self.neighbors if v not in self.disregarded]


@dataclass
class SpreadingResult:
    """Output of one ``GroupBitsSpreading`` run for one process."""

    ones: int
    zeros: int
    operative: bool
    packs: list[tuple[int, int] | None]


def group_bits_spreading(
    env: ProcessEnv,
    state: SpreadingState,
    group_count: int,
    my_group: int,
    my_counts: tuple[int, int],
    rounds: int,
    degree_threshold: int,
) -> Program:
    """Run Algorithm 3 for an *operative* process; returns
    :class:`SpreadingResult`.

    Consumes exactly ``rounds`` rounds.  ``my_counts`` is this process's
    group-aggregation output ``(ones, zeros)``.
    """
    packs: list[tuple[int, int] | None] = [None] * group_count
    packs[my_group] = my_counts
    # Per-link queues of slots not yet exchanged on that link, one bitmask
    # over the group slots each (each slot crosses each link at most once).
    pending = dict.fromkeys(state.neighbors, 1 << my_group)
    operative = True

    for _round_index in range(rounds):
        if not operative:
            yield
            continue
        live = state.live_neighbors()
        # One payload per distinct queue; mask 0 is the heartbeat (liveness
        # is judged per round).  Consecutive neighbours with equal queues
        # share one multicast -- runs only: merging non-adjacent links would
        # permute the flat copy order that omission schedules index.
        payloads: dict[int, tuple] = {0: (TAG_PACK, ())}
        for mask, run in groupby(live, key=pending.__getitem__):
            payload = payloads.get(mask)
            if payload is None:
                fresh = tuple(
                    (slot, packs[slot][0], packs[slot][1])
                    for slot in range(group_count)
                    if mask >> slot & 1
                )
                payload = payloads[mask] = (TAG_PACK, fresh)
            env.send_many(run, payload)
        inbox = yield
        new_mask = 0
        seen_from: dict[int, int] = {}  # heard sender -> slots it sent
        for sender, payload in zip(inbox_senders(inbox), inbox_payloads(inbox)):
            if sender in state.disregarded or sender not in pending:
                continue
            if not (
                isinstance(payload, tuple) and payload and payload[0] == TAG_PACK
            ):
                continue
            seen = seen_from.get(sender, 0)
            for slot, ones, zeros in payload[1]:
                if packs[slot] is None:
                    packs[slot] = (ones, zeros)
                    new_mask |= 1 << slot
                seen |= 1 << slot
            seen_from[sender] = seen
        # Everything sent is off its queue; a new slot joins every queue but
        # that of a link it was just seen on (no need to echo it back).
        for neighbor in live:
            pending[neighbor] = new_mask & ~seen_from.get(neighbor, 0)
        state.disregarded.update(v for v in live if v not in seen_from)
        if len(seen_from) < degree_threshold:
            operative = False

    ones = sum(entry[0] for entry in packs if entry is not None)
    zeros = sum(entry[1] for entry in packs if entry is not None)
    return SpreadingResult(ones=ones, zeros=zeros, operative=operative, packs=packs)
