"""The observer bus: hook order, neutrality, and the built-in observers.

The load-bearing property is *neutrality*: attaching any observer must not
change the execution.  Decisions, rounds, the faulty set, per-process
randomness, and every Metrics counter (including the per-round series)
must be identical to an unobserved run — checked here for Algorithm 1 and
for the Ben-Or baseline, both under an omitting adversary.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import SilenceAdversary
from repro.baselines import run_ben_or
from repro.core import run_consensus
from repro.runtime import (
    RoundObserver,
    RoundProfiler,
    SyncNetwork,
    TraceRecorder,
    result_to_dict,
)
from repro.runtime.process import SyncProcess, receive_round


class PingPong(SyncProcess):
    """Minimal two-round protocol for hook-order tests."""

    def program(self, env):
        env.broadcast(("ping",))
        yield from receive_round(env)
        env.broadcast(("pong",))
        yield from receive_round(env)
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


def test_add_observer_is_chainable_and_listed():
    log = HookLog()
    network = SyncNetwork([PingPong(pid, 2) for pid in range(2)])
    assert network.add_observer(log) is network
    assert log in network.observers
    network.run()
    assert log.calls[0] == ("run_start",)


def test_observer_order_follows_attachment_order():
    """Constructor observers run before ones attached via add_observer."""
    order = []

    class Tail(RoundObserver):
        def __init__(self, tag):
            self.tag = tag

        def on_round_end(self, round_no, network):
            order.append(self.tag)

    network = SyncNetwork(
        [PingPong(pid, 2) for pid in range(2)],
        observers=[Tail("constructor")],
    )
    network.add_observer(Tail("added"))
    network.run()
    rounds = network.metrics.rounds
    assert order == ["constructor", "added"] * rounds


# ---------------------------------------------------------------------------
# Neutrality: observed and unobserved runs are byte-identical.
def _algorithm1_run(observers=()):
    inputs = [pid % 2 for pid in range(32)]
    return run_consensus(
        inputs,
        adversary=SilenceAdversary(range(1)),
        t=1,
        seed=11,
        observers=observers,
    )


def _ben_or_run(observers=()):
    inputs = [pid % 2 for pid in range(32)]
    return run_ben_or(
        inputs,
        t=4,
        adversary=SilenceAdversary(range(4)),
        seed=11,
        observers=observers,
    )


@pytest.mark.parametrize("runner", [_algorithm1_run, _ben_or_run],
                         ids=["algorithm1", "ben-or"])
def test_observers_are_neutral(runner):
    baseline = runner()
    recorder = TraceRecorder()
    profiler = RoundProfiler()
    observed = runner(observers=(recorder, profiler, HookLog()))

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

    # The observers actually observed something.
    assert len(recorder.rounds) == baseline.metrics.rounds
    assert recorder.total_omissions() == baseline.metrics.messages_omitted
    assert profiler.rounds == baseline.metrics.rounds


# ---------------------------------------------------------------------------
# RoundProfiler internals.
def test_profiler_accumulates_phases():
    profiler = RoundProfiler()
    network = SyncNetwork(
        [PingPong(pid, 4) for pid in range(4)], observers=[profiler]
    )
    result = network.run()

    assert profiler.rounds == result.metrics.rounds
    for value in (profiler.compute, profiler.adversary, profiler.delivery,
                  profiler.overhead):
        assert value >= 0.0
    assert profiler.wall_time >= (
        profiler.compute + profiler.adversary + profiler.delivery
    )
    summary = profiler.summary()
    assert summary["rounds"] == profiler.rounds
    assert set(summary) == {
        "rounds", "wall_time", "compute", "adversary", "delivery", "overhead"
    }


def test_metrics_series_visible_from_round_end():
    """MetricsObserver runs first, so user hooks read current series."""

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
