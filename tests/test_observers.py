"""The observer bus: hook order, neutrality, and the engine's run report.

The load-bearing property is *neutrality*: attaching any observer must not
change the execution.  Decisions, rounds, the faulty set, per-process
randomness, and every Metrics counter (including the per-round series)
must be identical to an unobserved run — checked here for Algorithm 1 and
for the Ben-Or baseline, both under an omitting adversary.  The engine's
own :class:`RunReport` is deterministic too: apart from ``seconds`` it is
the same across transports, round models and attached observers.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import SilenceAdversary, VoteBalancingAdversary
from repro.harness import ExecutionConfig, execute
from repro.replay import record
from repro.runtime import (
    RoundObserver,
    RunReport,
    SyncNetwork,
    result_to_dict,
)
from repro.runtime.process import SyncProcess


class PingPong(SyncProcess):
    """Minimal two-round protocol for hook-order tests."""

    def program(self, env):
        env.broadcast(("ping",))
        yield
        env.broadcast(("pong",))
        yield
        env.decide(1)


class HookLog(RoundObserver):
    """Record every hook invocation in dispatch order."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def on_run_start(self, network):
        self.calls.append(("run_start",))

    def on_round_start(self, round_no, network):
        self.calls.append(("round_start", round_no))

    def on_messages_sent(self, round_no, outbound, network):
        self.calls.append(("messages_sent", round_no, len(outbound)))

    def on_adversary_action(self, round_no, view, action, network):
        self.calls.append(("adversary_action", round_no, len(action.omit)))

    def on_deliveries(self, round_no, delivered, lost, network):
        self.calls.append(("deliveries", round_no, len(delivered)))

    def on_round_end(self, round_no, network):
        self.calls.append(("round_end", round_no))

    def on_run_end(self, result, network):
        self.calls.append(("run_end", result.rounds))


def _run_fingerprint(run) -> str:
    """Canonical JSON of everything an observer could have perturbed."""
    return json.dumps(result_to_dict(run.result), sort_keys=True)


# ---------------------------------------------------------------------------
# Hook order.
def test_hook_sequence_is_the_documented_order():
    log = HookLog()
    network = SyncNetwork(
        [PingPong(pid, 3) for pid in range(3)], observers=[log]
    )
    result = network.run()

    assert log.calls[0] == ("run_start",)
    assert log.calls[-1] == ("run_end", result.rounds)
    per_round = ("round_start", "messages_sent", "adversary_action",
                 "deliveries", "round_end")
    body = log.calls[1:-1]
    # Full rounds repeat the 5-hook cycle; the terminal compute phase may
    # contribute one unmatched round_start just before run_end.
    full_rounds, trailer = body[: 5 * result.rounds], body[5 * result.rounds:]
    for index, call in enumerate(full_rounds):
        assert call[0] == per_round[index % 5]
        assert call[1] == index // 5
    assert [call[0] for call in trailer] in ([], ["round_start"])


def test_observers_see_adversary_omissions():
    log = HookLog()
    network = SyncNetwork(
        [PingPong(pid, 4) for pid in range(4)],
        adversary=SilenceAdversary([0]),
        t=1,
        observers=[log],
    )
    network.run()
    omitted = sum(
        call[2] for call in log.calls if call[0] == "adversary_action"
    )
    assert omitted == network.metrics.messages_omitted
    assert omitted > 0


def test_constructor_observers_are_listed():
    log = HookLog()
    network = SyncNetwork([PingPong(pid, 2) for pid in range(2)], observers=[log])
    assert network.observers == (network.report, log)
    network.run()
    assert log.calls[0] == ("run_start",)


def test_observer_order_follows_attachment_order():
    """Observers run in the order ``observers=`` lists them."""
    order = []

    class Tail(RoundObserver):
        def __init__(self, tag):
            self.tag = tag

        def on_round_end(self, round_no, network):
            order.append(self.tag)

    network = SyncNetwork(
        [PingPong(pid, 2) for pid in range(2)],
        observers=[Tail("first"), Tail("second")],
    )
    network.run()
    rounds = network.metrics.rounds
    assert order == ["first", "second"] * rounds


# ---------------------------------------------------------------------------
# Neutrality: observed and unobserved runs are byte-identical.
def _algorithm1_run(observers=()):
    inputs = [pid % 2 for pid in range(32)]
    return execute(
        "algorithm1", inputs,
        adversary=SilenceAdversary(range(1)),
        t=1,
        seed=11,
        observers=observers,
    )


def _ben_or_run(observers=()):
    inputs = [pid % 2 for pid in range(32)]
    return execute(
        "ben-or", inputs,
        t=4,
        adversary=SilenceAdversary(range(4)),
        seed=11,
        observers=observers,
    )


@pytest.mark.parametrize("runner", [_algorithm1_run, _ben_or_run],
                         ids=["algorithm1", "ben-or"])
def test_observers_are_neutral(runner):
    baseline = runner()
    log = HookLog()
    observed = runner(observers=(log,))

    assert _run_fingerprint(observed) == _run_fingerprint(baseline)
    assert observed.result.decisions == baseline.result.decisions
    assert observed.metrics.summary() == baseline.metrics.summary()
    assert (
        observed.metrics.messages_per_round
        == baseline.metrics.messages_per_round
    )
    assert observed.metrics.bits_per_round == baseline.metrics.bits_per_round
    assert (
        observed.result.randomness_per_process
        == baseline.result.randomness_per_process
    )
    assert observed.result.faulty == baseline.result.faulty

    # The observer actually observed something.
    ends = [call for call in log.calls if call[0] == "round_end"]
    assert len(ends) == baseline.metrics.rounds


# ---------------------------------------------------------------------------
# The run report.
def test_profiler_accumulates_phases():
    """The report's ``seconds`` is the engine's phase profile."""
    network = SyncNetwork([PingPong(pid, 4) for pid in range(4)])
    result = network.run()

    report = result.report
    assert isinstance(report, RunReport)
    assert report is network.report is network.observers[0]
    assert list(report.seconds) == [
        "compute", "adversary", "delivery", "overhead", "wall"
    ]
    assert all(value >= 0.0 for value in report.seconds.values())
    seconds = report.seconds
    assert seconds["compute"] + seconds["adversary"] + seconds["delivery"] <= (
        seconds["wall"]
    )


def _deterministic(report):
    payload = report.to_dict()
    del payload["seconds"]
    return payload


def test_report_is_deterministic_and_passive():
    def algorithm1(**kwargs):
        return execute(
            "algorithm1", [pid % 2 for pid in range(16)], seed=3, **kwargs
        ).result

    reference = algorithm1()
    payload = _deterministic(reference.report)
    # The same account over real worker processes and with a user
    # observer on the bus.
    assert _deterministic(algorithm1(transport="tcp").report) == payload
    assert _deterministic(algorithm1(observers=[HookLog()]).report) == payload
    # It is not part of the result's identity or its JSON.
    assert "report" not in result_to_dict(reference)
    json.dumps(reference.report.to_dict())

    # Against the run's other accounts, on a run the adversary works on.
    n, t = 64, 2
    recorded = record(
        ExecutionConfig("algorithm1", [pid % 2 for pid in range(n)], t=t, seed=4),
        VoteBalancingAdversary(seed=1),
    )
    report = recorded.run.result.report
    metrics = recorded.run.metrics
    assert sum(report.omitted_per_round) == metrics.messages_omitted > 0
    assert len(report.omitted_per_round) == metrics.rounds
    first_corrupted = {}
    for action in recorded.recipe.actions:
        for pid in action.corrupt:
            first_corrupted.setdefault(pid, action.round)
    assert report.corruption_rounds == first_corrupted
    assert first_corrupted
    assert report.decision_rounds == recorded.run.result.decision_rounds
    seconds = report.seconds
    assert seconds["compute"] + seconds["adversary"] + seconds["delivery"] <= (
        seconds["wall"]
    )
    assert seconds["overhead"] == pytest.approx(
        seconds["wall"]
        - seconds["compute"] - seconds["adversary"] - seconds["delivery"]
    )


def test_metrics_series_visible_from_round_end():
    """The report runs first, so user hooks read current series."""

    class SeriesCheck(RoundObserver):
        def __init__(self) -> None:
            self.ok = True

        def on_round_end(self, round_no, network):
            series = network.metrics.messages_per_round
            self.ok = self.ok and len(series) == round_no + 1

    check = SeriesCheck()
    network = SyncNetwork(
        [PingPong(pid, 3) for pid in range(3)], observers=[check]
    )
    network.run()
    assert check.ok
