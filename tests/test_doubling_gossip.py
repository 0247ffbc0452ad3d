"""Tests for the B.3 doubling-collector experiment."""

import pytest

from repro.baselines import (
    CrashCollectors,
    DoublingCollector,
    ResponseStarver,
    measure_amortization,
)
from repro.harness import execute


def run_collectors(n, t, adversary, quorum=None, seed=0):
    options = {} if quorum is None else {"quorum": quorum}
    return execute(
        "collectors", n=n, t=t, adversary=adversary, seed=seed,
        options=options,
    )


class TestCollector:
    def test_rejects_bad_quorum(self):
        with pytest.raises(ValueError):
            DoublingCollector(0, 8, 0)
        with pytest.raises(ValueError):
            DoublingCollector(0, 8, 8)

    def test_fault_free_all_satisfied(self):
        processes = run_collectors(32, 0, None, seed=1).processes
        for process in processes:
            assert process.satisfied
            assert len(process.responses) >= process.quorum

    def test_doubling_stops_at_quorum_wave(self):
        """Contacts follow 1+2+4+... and stop at the first wave covering
        the quorum — never the whole system when everyone answers."""
        processes = run_collectors(64, 0, None, quorum=10, seed=2).processes
        for process in processes:
            assert process.contacted == 15  # 1+2+4+8

    def test_small_quorum_one_wave(self):
        processes = run_collectors(16, 0, None, quorum=1, seed=3).processes
        assert all(process.contacted == 1 for process in processes)


class TestCrashSemantics:
    def test_crashed_collectors_cost_nothing(self):
        points = measure_amortization(64, 2, seed=4)
        assert points["crash"]["responses_to_victims"] == 0

    def test_crashed_collectors_never_satisfied(self):
        processes = run_collectors(
            32, 2, CrashCollectors([0, 1]), seed=5
        ).processes
        assert not processes[0].satisfied
        assert not processes[1].satisfied
        for process in processes[2:]:
            assert process.satisfied


class TestOmissionSemantics:
    def test_starved_collector_sweeps_everyone(self):
        processes = run_collectors(
            64, 1, ResponseStarver([0]), seed=6
        ).processes
        assert processes[0].contacted == 63
        assert not processes[0].satisfied

    def test_starved_collector_charges_everyone(self):
        points = measure_amortization(64, 1, seed=7)
        assert points["omission"]["responses_to_victims"] == 63

    def test_healthy_collectors_unaffected(self):
        """The starver only touches responses to its victims; healthy
        collectors finish exactly as in the fault-free run."""
        def healthy_requests(adversary):
            processes = run_collectors(64, 2, adversary, seed=8).processes
            return [process.contacted for process in processes[2:]]

        assert healthy_requests(ResponseStarver([0, 1])) == (
            healthy_requests(None)
        )

    def test_omission_beats_crash_in_forced_work(self):
        for n, t in ((64, 2), (96, 3)):
            points = measure_amortization(n, t, seed=9)
            forced = points["omission"]["responses_to_victims"]
            assert forced > points["crash"]["responses_to_victims"]
            # Each victim is answered by every healthy process exactly
            # once: t * (n - t) forced responses.
            assert forced == t * (n - t)
