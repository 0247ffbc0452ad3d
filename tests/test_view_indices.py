"""Oracle for the adversary view's index helpers.

``NetworkView.message_indices_touching / _from / _to`` answer for the asked
pids only, by vectorized selects on the round's column vectors.  This
module keeps what they replaced — the
all-copies ``indices_by_sender`` / ``indices_by_recipient`` builders and
the three helper bodies — verbatim as the executable specification, and
checks that the new helpers hand ``frozenset()`` the **same list**: the
iteration order of a set of ints depends on its insertion sequence, and
``RandomOmissionAdversary`` assigns its draws in that order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import EclipseAdversary
from repro.adversary.strategies import _cap_to_budget
from repro.harness import ExecutionConfig
from repro.replay import record
from repro.runtime import (
    AdversaryAction,
    Message,
    MessageBatch,
    Multicast,
    NetworkView,
    network,
)

HELPERS = {
    "message_indices_touching": (True, True),
    "message_indices_from": (True, False),
    "message_indices_to": (False, True),
}


# ---------------------------------------------------------------------------
# The reference: the parent's index builders and helper bodies, verbatim.
def indices_by_sender(batch: MessageBatch) -> dict[int, list[int]]:
    """Flat copy indices grouped by sender, in index order."""
    by_sender: dict[int, list[int]] = {}
    for record, base in zip(batch.records, batch.offsets):
        if type(record) is Multicast:
            indices = range(base, base + len(record.recipients))
        else:
            indices = (base,)
        existing = by_sender.get(record.sender)
        if existing is None:
            by_sender[record.sender] = list(indices)
        else:
            existing.extend(indices)
    return by_sender


def indices_by_recipient(batch: MessageBatch) -> dict[int, list[int]]:
    """Flat copy indices grouped by recipient, in index order."""
    by_recipient: dict[int, list[int]] = {}
    setdefault = by_recipient.setdefault
    for record, base in zip(batch.records, batch.offsets):
        if type(record) is Multicast:
            for position, recipient in enumerate(record.recipients):
                setdefault(recipient, []).append(base + position)
        else:
            setdefault(record.recipient, []).append(base)
    return by_recipient


def reference_indexes(messages):
    if isinstance(messages, MessageBatch):
        return indices_by_sender(messages), indices_by_recipient(messages)
    by_sender: dict[int, list[int]] = {}
    by_recipient: dict[int, list[int]] = {}
    for index, message in enumerate(messages):
        by_sender.setdefault(message.sender, []).append(index)
        by_recipient.setdefault(message.recipient, []).append(index)
    return by_sender, by_recipient


def reference_list(messages, pids, sent: bool, received: bool) -> list[int]:
    """The list the parent's helpers handed to ``frozenset()``."""
    by_sender, by_recipient = reference_indexes(messages)
    indices: list[int] = []
    for pid in sorted(set(pids)):
        if sent:
            indices.extend(by_sender.get(pid, ()))
        if received:
            indices.extend(by_recipient.get(pid, ()))
    return indices


# ---------------------------------------------------------------------------
def view_of(messages) -> NetworkView:
    return NetworkView(0, (), messages, frozenset(), 0, {}, frozenset())


def handed_to_frozenset(messages, helper: str, pids):
    """Call ``helper`` and capture the argument it builds its result from."""
    handed: list[list[int]] = []

    def spy(items=()):
        handed.append(list(items))
        return frozenset(items)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "frozenset", spy, raising=False)
        result = getattr(view_of(messages), helper)(pids)
    (items,) = handed
    assert result == frozenset(items)
    return items


N = 7
pid_in_range = st.integers(0, N - 1)
records = st.lists(
    st.one_of(
        st.builds(Message, pid_in_range, pid_in_range, st.just("p")),
        st.builds(
            Multicast,
            pid_in_range,
            # Repeats allowed: a recipient may recur inside one fan-out.
            st.lists(pid_in_range, min_size=1, max_size=3 * N).map(tuple),
            st.just(("m",)),
        ),
    ),
    max_size=12,
)


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        records=records,
        sender_sorted=st.booleans(),
        plain_list=st.booleans(),
        # Empty sets, pids with no traffic and out-of-range pids included.
        pids=st.sets(st.integers(-2, N + 2), max_size=N),
    )
    def test_same_list_as_the_parent_helpers(
        self, records, sender_sorted, plain_list, pids
    ):
        if sender_sorted:
            records = sorted(records, key=lambda record: record.sender)
        batch = MessageBatch(records)
        messages = list(batch) if plain_list else batch
        for helper, (sent, received) in HELPERS.items():
            assert handed_to_frozenset(messages, helper, pids) == (
                reference_list(messages, pids, sent, received)
            )

    @pytest.mark.parametrize("fanout", [1, 3, 4, 9])
    def test_both_sides_of_the_per_batch_rule(self, fanout):
        """Fan-outs on both sides of the retired per-batch rule (records
        were walked below fan-out 4) answer from the column vectors with
        the same list."""
        n = 10
        batch = MessageBatch(
            [
                Multicast(
                    pid, tuple((pid + k) % n for k in range(1, fanout + 1)), pid
                )
                for pid in range(n)
            ]
        )
        pids = {0, 3, 4, 11}
        for helper, (sent, received) in HELPERS.items():
            assert handed_to_frozenset(batch, helper, pids) == (
                reference_list(batch, pids, sent, received)
            )

    def test_dense_round_iterates_like_the_parent(self):
        """The collision case: at n=256 a set of flat indices does not
        iterate in sorted order, so only the same insertion sequence gives
        ``RandomOmissionAdversary`` the same draw assignment."""
        batch, faulty = dense_round()
        new = view_of(batch).message_indices_touching(faulty)
        reference = frozenset(reference_list(batch, faulty, True, True))
        assert list(new) == list(reference)
        assert list(new) != sorted(new)
        assert list(new) != list(frozenset(sorted(new)))


def dense_round(n: int = 256, t: int = 32):
    """One Ben-Or-shaped all-to-all round and a spread-out faulty set."""
    everyone = tuple(range(n))
    batch = MessageBatch(
        [
            Multicast(pid, everyone[:pid] + everyone[pid + 1 :], (7, pid % 2))
            for pid in range(n)
        ]
    )
    return batch, frozenset(range(3, n, n // t))


# ---------------------------------------------------------------------------
# EclipseAdversary answers from the view's indexes; its schedule is the
# parent's, whose ``act`` scanned every copy of every round.
class ParentEclipseAdversary(EclipseAdversary):
    def act(self, view):
        corrupt = frozenset()
        if not self._started:
            self._started = True
            corrupt = _cap_to_budget(
                (pid for pid in self.neighbors if pid != self.victim), view
            )
        silenced = set(self.neighbors) & (view.faulty | corrupt)
        omit = frozenset(
            index
            for index, message in enumerate(view.messages)
            if message.recipient == self.victim and message.sender in silenced
        )
        return AdversaryAction(corrupt=corrupt, omit=omit)


def test_eclipse_schedule_equals_the_parents():
    """Algorithm 1 at n=64: per-link and all-to-all rounds alike."""
    inputs = [pid % 2 for pid in range(64)]
    neighbors = (3, 20, 41)  # one more than the budget

    def actions(adversary):
        recorded = record(
            ExecutionConfig("algorithm1", inputs, t=2, seed=5), adversary
        )
        assert not recorded.failed
        return recorded.recipe.actions

    schedule = actions(EclipseAdversary(0, neighbors))
    assert schedule == actions(ParentEclipseAdversary(0, neighbors))
    assert any(action.omit for action in schedule)
