"""Tests for the delta-debugging recipe shrinker.

The planted bug: a one-round broadcast-majority "protocol" with no fault
tolerance — omissions can split the tally across the majority threshold,
so non-faulty processes disagree.  A fuzzer-recorded failure carries a
large random schedule; the shrinker must reduce it to a handful of
omissions that still reproduce the agreement violation on replay.
"""

import pytest

from repro.adversary import RandomOmissionAdversary
from repro.harness import ExecutionConfig, ProtocolSpec, register_protocol
from repro.replay import (
    check_consensus_protocol,
    load_recipe,
    record,
    replay,
    shrink_recipe,
)
from repro.replay.shrink import _ddmin
from repro.runtime import ProcessEnv, SyncProcess

INPUTS = [0, 1, 0, 1, 0, 1, 0, 1, 1]


class BuggyMajority(SyncProcess):
    """Decide the majority of *heard* bits — deliberately not
    omission-tolerant: a split inbox splits the decisions."""

    def __init__(self, pid, n, bit):
        super().__init__(pid, n)
        self.bit = bit

    def program(self, env: ProcessEnv):
        env.broadcast(self.bit)
        inbox = yield
        ones = sum(message.payload for message in inbox) + self.bit
        total = len(inbox) + 1
        env.decide(1 if 2 * ones >= total else 0)
        return None


def _build(request):
    processes = [
        BuggyMajority(pid, request.n, bit)
        for pid, bit in enumerate(request.inputs)
    ]
    return processes, request.t


register_protocol(
    ProtocolSpec(
        name="buggy-majority",
        summary="test-only planted agreement bug (broadcast majority)",
        build=_build,
        default_max_rounds=10,
        default_t=lambda n, params: 4,
        sweepable=False,
    ),
    replace=True,
)


def record_planted_failure():
    """Seed 0 is a verified failing execution (agreement violation)."""
    recorded = record(
        ExecutionConfig("buggy-majority", INPUTS, t=4),
        RandomOmissionAdversary(0.6, corrupt_count=4, seed=0),
    )
    assert recorded.failed
    assert recorded.recipe.expected_failure["invariant"] == "agreement"
    return recorded.recipe


class TestDdmin:
    @staticmethod
    def needs_three_and_seven(items):
        return 3 in items and 7 in items

    def test_minimizes_to_the_two_required_items(self):
        result = _ddmin(list(range(10)), self.needs_three_and_seven)
        assert sorted(result) == [3, 7]

    def test_preserves_order(self):
        result = _ddmin(
            [9, 7, 5, 3, 1], self.needs_three_and_seven
        )
        assert result == [7, 3]

    def test_single_relevant_item(self):
        assert _ddmin(list(range(8)), lambda items: 5 in items) == [5]

    def test_empty_when_predicate_ignores_input(self):
        assert _ddmin([1, 2, 3], lambda items: True) == []


class TestShrinkPlantedBug:
    def test_shrinks_below_quarter_of_original_omissions(self):
        recipe = record_planted_failure()
        original = recipe.total_omissions()
        assert original >= 8
        result = shrink_recipe(recipe)
        shrunk = result.recipe
        # The acceptance bar: <= 25% of the original omission entries...
        assert shrunk.total_omissions() <= original // 4
        assert shrunk.total_corruptions() <= recipe.total_corruptions()
        # ...while the minimized schedule still fails the same invariant
        # on replay.
        report = replay(shrunk)
        assert report.reproduced_failure
        assert report.failure.invariant == "agreement"
        assert shrunk.expected_failure["invariant"] == "agreement"
        assert "(shrunk)" in shrunk.note

    def test_shrunk_schedule_is_locally_minimal(self):
        """Dropping any single remaining round-action must lose the bug
        (1-minimality at round granularity — what ddmin guarantees)."""
        result = shrink_recipe(record_planted_failure())
        actions = result.recipe.actions
        for index in range(len(actions)):
            candidate = result.recipe.with_actions(
                actions[:index] + actions[index + 1:]
            )
            assert not replay(candidate).reproduced_failure

    def test_rejects_recipe_that_does_not_fail(self):
        recorded = record(
            ExecutionConfig(
                "phase-king", [pid % 2 for pid in range(13)], t=3, seed=6
            ),
            RandomOmissionAdversary(0.4, seed=6),
        )
        assert not recorded.failed
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_recipe(recorded.recipe)


class TestRunCheckedShrinks:
    def test_fuzz_failure_lands_as_shrunk_recipe(self, tmp_path):
        """The battery saves the *shrunk* schedule of a failing cell."""
        (failing,) = check_consensus_protocol(
            ExecutionConfig("buggy-majority", n=len(INPUTS), t=4),
            {"random": lambda n, t, seed: RandomOmissionAdversary(
                0.6, corrupt_count=4, seed=seed
            )},
            seeds=(2,),
            save_dir=tmp_path,
        )
        assert failing.expected_failure["invariant"] == "agreement"
        (saved,) = tmp_path.glob("*.json")
        recipe = load_recipe(saved)
        assert recipe == failing
        assert "(shrunk)" in recipe.note
        original = record(
            recipe.config, RandomOmissionAdversary(
                0.6, corrupt_count=4, seed=2
            ),
        ).recipe
        assert original.total_omissions() >= 8
        assert recipe.total_omissions() <= original.total_omissions() // 4
        assert replay(recipe).reproduced_failure
