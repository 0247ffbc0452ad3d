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
Most rounds are such rounds (the graph's diameter is 2-3, the phase runs
``Theta(log n)`` rounds), so a round's cost follows its news: with no queue
to serve and an all-heartbeat inbox it is one multicast and one
``list.count`` -- no per-link step.  A round with news builds its *fresh
pack* (the slots learned the round before) once and cuts each link's pack
from it, by a tuple slice for a link that sent us one of those slots.  A
received pack's triples are learned only when its slot mask shows a slot
not yet known.  A learned slot is kept as the wire triple it arrived in,
forwarded by reference and sized once, when learned (``payload_bits`` is
additive: a pack's size is a sum of slot costs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from ..runtime import (
    ProcessEnv,
    Program,
    inbox_payloads,
    inbox_senders,
    payload_bits,
    tagged_from,
)

TAG_PACK = 4

#: The empty pack, and its size: the fixed part of every pack's size.
_HEARTBEAT: tuple[int, tuple[()]] = (TAG_PACK, ())
_HEARTBEAT_BITS = payload_bits(_HEARTBEAT)


@dataclass
class SpreadingState:
    """Per-process state persisting across epochs: ``disregarded``
    implements the "never use this link again" rule, so it only grows."""

    neighbors: tuple[int, ...]
    disregarded: set[int] = field(default_factory=set)
    #: ``(len(disregarded) when built, the live neighbours, as a set)``.
    _live: tuple[int, tuple[int, ...], frozenset[int]] = field(
        default=(-1, (), frozenset()), init=False, repr=False, compare=False
    )

    def live_neighbors(self) -> tuple[int, ...]:
        """The neighbours not disregarded, in order; one tuple, rebuilt
        only once ``disregarded`` has grown."""
        if self._live[0] != len(self.disregarded):
            live = tuple([v for v in self.neighbors if v not in self.disregarded])
            self._live = (len(self.disregarded), live, frozenset(live))
        return self._live[1]

    def live_set(self) -> frozenset[int]:
        """:meth:`live_neighbors` as a set, cached with it."""
        self.live_neighbors()
        return self._live[2]


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
    # Per slot: the wire triple as learned, and what it adds to a pack's size.
    triples: list[tuple[int, int, int] | None] = [None] * group_count
    cost = [0] * group_count
    triples[my_group] = mine = (my_group, *my_counts)
    cost[my_group] = payload_bits(mine) + 1
    bit = [1 << slot for slot in range(group_count)]
    live, live_set = state.live_neighbors(), state.live_set()
    # The slots learned the round before (ascending) and their mask -- what
    # this round's fresh pack carries -- and the mask of every slot known.
    fresh_slots, fresh_mask = [my_group], bit[my_group]
    known = fresh_mask
    # Per-link queues of fresh slots not yet exchanged on that link, one
    # bitmask each (each slot crosses each link at most once), kept only
    # for live links that are owed something.
    pending = dict.fromkeys(live, fresh_mask)
    operative = True

    for _round_index in range(rounds):
        if not operative:
            yield
            continue
        if not pending:
            # Liveness is judged per round: one heartbeat to every live link.
            env.send_many(live, _HEARTBEAT, _HEARTBEAT_BITS)
        else:
            fresh = tuple([triples[slot] for slot in fresh_slots])
            fresh_bits = _HEARTBEAT_BITS + sum([cost[slot] for slot in fresh_slots])
            # One sized payload per distinct queue (``None``: owed nothing).
            # Consecutive neighbours with equal queues share one multicast
            # -- runs only: merging non-adjacent links would permute the
            # flat copy order that omission schedules index.
            sized = {None: (_HEARTBEAT, _HEARTBEAT_BITS), fresh_mask: ((TAG_PACK, fresh), fresh_bits)}
            for mask, run in groupby(live, key=pending.get):
                if mask not in sized:
                    dropped = fresh_mask & ~mask
                    if dropped & (dropped - 1) == 0:  # one slot: the one this link sent
                        cut = (fresh_mask & (dropped - 1)).bit_count()
                        pack, size = fresh[:cut] + fresh[cut + 1 :], fresh_bits - cost[fresh_slots[cut]]
                    else:
                        owed = [slot for slot in fresh_slots if mask & bit[slot]]
                        pack = tuple([triples[slot] for slot in owed])
                        size = _HEARTBEAT_BITS + sum([cost[slot] for slot in owed])
                    sized[mask] = ((TAG_PACK, pack), size)
                env.send_many(run, *sized[mask])
            pending = {}  # everything sent is off its queue
        inbox = yield
        senders, payloads = inbox_senders(inbox), inbox_payloads(inbox)
        if payloads.count(_HEARTBEAT) == len(payloads):
            # A quiescent round: nothing to learn, nothing owed; most often
            # exactly the live links were heard.
            heard = live_set if tuple(senders) == live else live_set.intersection(senders)
        else:
            fresh_slots = []
            heard = seen_from = {}  # heard sender -> slots it sent
            for sender, payload in tagged_from(senders, payloads, TAG_PACK):
                if sender not in live_set:
                    continue
                mask = 0
                for slot, _ones, _zeros in payload[1]:
                    mask |= bit[slot]
                if mask & ~known:
                    for triple in payload[1]:
                        if triples[triple[0]] is None:
                            triples[triple[0]] = triple
                            cost[triple[0]] = payload_bits(triple) + 1
                            fresh_slots.append(triple[0])
                    known |= mask
                seen_from[sender] = seen_from.get(sender, 0) | mask
            # A new slot joins the queue of every link heard from but one it
            # was just seen on (no need to echo it back).
            if fresh_slots:
                fresh_slots.sort()
                fresh_mask = sum(map(bit.__getitem__, fresh_slots))
                pending = {
                    v: owed for v in live if v in seen_from and (owed := fresh_mask & ~seen_from[v])
                }
        if len(heard) != len(live):
            # A link went silent: never use it again.
            state.disregarded.update(v for v in live if v not in heard)
            live, live_set = state.live_neighbors(), state.live_set()
        if len(heard) < degree_threshold:
            operative = False

    packs = [None if triple is None else triple[1:] for triple in triples]
    ones = sum(entry[0] for entry in packs if entry is not None)
    zeros = sum(entry[1] for entry in packs if entry is not None)
    return SpreadingResult(ones=ones, zeros=zeros, operative=operative, packs=packs)
