"""Counting receive steps read no copy one by one.

Ben-Or's votes and ParamOmissions' flood values are shared payload
objects, so a receive step tallies them with ``list.count`` -- C-level
comparisons -- and enters a Python loop only for an inbox the counts do
not cover.  A probe payload equal to, but never identical with, the
module's own (what a TCP worker unpickles) counts the per-copy reads a
Python loop or a ``Counter`` makes; the counts themselves make none.
"""

import pytest

from repro.baselines.ben_or import _VOTES, TAG_VOTE, BenOrVotingProcess
from repro.core.spreading import SpreadingState
from repro.core.tradeoff import TAG_FLOOD, _flood_decision
from repro.harness import execute
from repro.runtime import CountingRandom, Message, ProcessEnv

from .delivery_oracle import clear, queued


class Probe(tuple):
    """A payload tuple that counts how often it is indexed or hashed."""

    reads = 0

    def __getitem__(self, index):
        type(self).reads += 1
        return tuple.__getitem__(self, index)

    def __hash__(self):
        type(self).reads += 1
        return tuple.__hash__(self)


@pytest.fixture
def probe(monkeypatch):
    """``probe(sender, payload)``: an inbox copy holding a :class:`Probe`
    (a tuple subclass is not sizeable; an inbox copy's bits are not read)."""
    monkeypatch.setattr(Probe, "reads", 0)
    return lambda sender, payload: Message(sender, 0, Probe(payload), bits=1)


def ben_or_first_phase(input_bit, inbox):
    """One process's first Ben-Or phase on ``inbox``; returns (process,
    the records it queued after reading it)."""
    n = len(inbox) + 1
    process = BenOrVotingProcess(0, n, input_bit, threshold=0.4)
    env = ProcessEnv(0, n, CountingRandom(0))
    program = process.program(env)
    next(program)
    clear(env)
    program.send(inbox)
    return process, queued(env)


def flood(value, inboxes):
    """Pid 0 with neighbours 1..3 floods ``value`` for ``len(inboxes)``
    rounds; returns (its value, its state, the payloads it queued)."""
    env = ProcessEnv(0, 4, CountingRandom(0))
    state = SpreadingState(neighbors=(1, 2, 3))
    program = _flood_decision(env, state, value, len(inboxes), 0)
    next(program)
    for inbox in inboxes[:-1]:
        program.send(inbox)
    sent = [record.payload for record in queued(env)]
    with pytest.raises(StopIteration) as done:
        program.send(inboxes[-1])
    value, operative = done.value.value
    assert operative
    return value, state, sent


def test_all_vote_ben_or_inbox_reads_no_copy(probe):
    votes = [probe(sender, (TAG_VOTE, sender % 2)) for sender in range(1, 6)]
    process, outbox = ben_or_first_phase(0, votes)
    assert Probe.reads == 0
    # 3 ones of 6: margin 0, a coin; the next vote is a shared payload.
    assert not process.decided
    (record,) = outbox
    assert record.payload is _VOTES[process.b]


class TestFlood:
    @pytest.mark.parametrize("value", [None, 0, 1])
    def test_quiet_round_reads_no_copy(self, probe, value):
        """Every copy repeats the value held: one count and one set
        intersection.  Neighbour 2 is silent in round 2 and is dropped."""
        first = [probe(sender, (TAG_FLOOD, value)) for sender in (1, 2, 3)]
        held, state, sent = flood(value, [first, [first[0], first[2]]])
        assert Probe.reads == 0
        assert held == value and state.disregarded == {2}
        assert sent == [(TAG_FLOOD, value)] * 2
        assert sent[0] is sent[1]  # one shared payload per value

    def test_one_differing_value_takes_the_loop(self, probe):
        """A round holding a value adopts the first one in sender order."""
        inbox = [
            probe(1, (TAG_FLOOD, None)),
            Message(2, 0, (TAG_FLOOD, 0)),
            Message(3, 0, (TAG_FLOOD, 1)),
        ]
        held, state, _ = flood(None, [inbox])
        assert Probe.reads > 0
        assert held == 0 and state.disregarded == set()

    def test_a_disregarded_link_is_not_heard(self):
        """Neighbour 2, silent in round 1, still floods pid 0 in round 2
        (its own side of the link is live): pid 0 neither hears it nor
        adopts its value."""
        first = [Message(1, 0, (TAG_FLOOD, None)), Message(3, 0, (TAG_FLOOD, None))]
        second = [first[0], Message(2, 0, (TAG_FLOOD, 1)), first[1]]
        held, state, sent = flood(None, [first, second])
        assert held is None and state.disregarded == {2}
        assert sent == [(TAG_FLOOD, None)] * 2


@pytest.mark.parametrize(
    "protocol,n,options,bits",
    [
        ("ben-or", 16, {}, 121_200),
        ("tradeoff", 16, {"x": 16}, 561_600),
    ],
)
def test_bool_inputs_keep_their_bits(protocol, n, options, bits):
    """A ``bool`` bit keeps its own payload: ``True`` sizes a bit under
    ``1``, so a shared ``(TAG, 1)`` would move ``bits_sent`` (the pinned
    totals are the per-copy originals'; int inputs give 121 440 and
    588 960)."""
    run = execute(
        protocol, [bool(pid % 2) for pid in range(n)], seed=3,
        **options,
    )
    assert run.result.metrics.bits_sent == bits
