"""The run report's round-by-round record: traffic, omissions, corruptions,
decisions."""

from repro.adversary import SilenceAdversary, StaticCrashAdversary
from repro.core import build_processes
from repro.runtime import RoundObserver, SyncNetwork


class OperativeCount(RoundObserver):
    """(round, #operative processes) at the end of every round."""

    def __init__(self):
        self.series = []

    def on_round_end(self, round_no, network):
        operative = sum(p.state.operative for p in network.processes)
        self.series.append((round_no, operative))


def traced_run(n=64, adversary=None, t=0, seed=1, observers=()):
    processes = build_processes([pid % 2 for pid in range(n)], t=t)
    network = SyncNetwork(
        processes, adversary=adversary, t=t, seed=seed, observers=observers
    )
    result = network.run()
    return result.report, result


class TestRoundTraces:
    def test_one_trace_per_round(self):
        report, result = traced_run()
        assert len(report.omitted_per_round) == result.metrics.rounds

    def test_traffic_matches_metrics(self):
        report, result = traced_run()
        assert report.metrics is result.metrics
        assert sum(result.metrics.bits_per_round) == result.metrics.bits_sent
        assert report.to_dict()["metrics"]["messages_per_round"] == (
            result.metrics.messages_per_round
        )

    def test_corruption_rounds_recorded(self):
        report, result = traced_run(
            adversary=StaticCrashAdversary({4: [0], 9: [1]}), t=2
        )
        assert report.corruption_rounds == {0: 4, 1: 9}
        assert report.to_dict()["corruption_rounds"] == {"0": 4, "1": 9}

    def test_omissions_counted(self):
        report, result = traced_run(adversary=SilenceAdversary([0]), t=1)
        assert sum(report.omitted_per_round) == result.metrics.messages_omitted
        assert sum(report.omitted_per_round) > 0

    def test_decision_rounds_subset_of_result(self):
        """The report keeps the engine's complete map, terminal
        local-computation phase included."""
        report, result = traced_run()
        assert report.decision_rounds == result.decision_rounds
        assert len(report.decision_rounds) == result.n

    def test_decision_rounds_observed_for_staggered_deciders(self):
        """Under silence the report holds every correct decider and
        nothing for a faulty process the result does not list."""
        report, result = traced_run(adversary=SilenceAdversary([0]), t=1)
        assert report.decision_rounds == result.decision_rounds
        assert set(range(1, result.n)) <= set(report.decision_rounds)

    def test_operative_series_monotone_down(self):
        counter = OperativeCount()
        traced_run(adversary=SilenceAdversary([0, 1]), t=2, observers=[counter])
        series = [count for _, count in counter.series]
        assert series
        assert all(a >= b for a, b in zip(series, series[1:]))
