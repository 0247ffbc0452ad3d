"""Engine tests: lockstep delivery, adversary legality, metrics, results.

Uses small scripted processes rather than the real protocols, so each engine
behaviour is exercised in isolation.
"""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from repro.harness import execute
from repro.replay import InvariantObserver, recipe_from_payload, replay
from repro.runtime import (
    Adversary,
    AdversaryAction,
    AdversaryProtocolError,
    ExecutionCore,
    LinkSample,
    LockstepError,
    MessageBatch,
    ProcessEnv,
    RoundObserver,
    SyncNetwork,
    SyncProcess,
    result_to_dict,
)

GOLDEN = Path(__file__).parent / "data" / "golden-ben-or.json"


class EchoOnce(SyncProcess):
    """Round 0: broadcast own pid; round 1: record inbox; decide."""

    def __init__(self, pid: int, n: int) -> None:
        super().__init__(pid, n)
        self.heard: list[int] = []

    def program(self, env: ProcessEnv):
        env.broadcast(("pid", self.pid))
        inbox = yield
        self.heard = sorted(message.payload[1] for message in inbox)
        env.decide(tuple(self.heard))
        return None


class Chatter(SyncProcess):
    """Broadcasts every round for a fixed number of rounds; never decides."""

    def __init__(self, pid: int, n: int, rounds: int) -> None:
        super().__init__(pid, n)
        self.rounds = rounds

    def program(self, env: ProcessEnv):
        for round_no in range(self.rounds):
            env.broadcast(("r", round_no))
            yield
        env.decide("done")
        return None


class SelfTalker(SyncProcess):
    def program(self, env: ProcessEnv):
        env.send(self.pid, "hello me")
        inbox = yield
        env.decide(len(inbox))
        return None


def test_all_to_all_delivery():
    n = 5
    network = SyncNetwork([EchoOnce(pid, n) for pid in range(n)])
    result = network.run()
    for pid in range(n):
        expected = tuple(sorted(set(range(n)) - {pid}))
        assert result.decisions[pid] == expected


def test_inbox_sorted_by_sender():
    n = 4
    processes = [EchoOnce(pid, n) for pid in range(n)]
    network = SyncNetwork(processes)
    network.run()
    for process in processes:
        assert process.heard == sorted(process.heard)


def test_self_messages_delivered():
    network = SyncNetwork([SelfTalker(0, 1)])
    result = network.run()
    assert result.decisions[0] == 1


def test_metrics_counts_messages_and_rounds():
    n = 3
    network = SyncNetwork([Chatter(pid, n, rounds=4) for pid in range(n)])
    result = network.run()
    # 4 rounds of n*(n-1) broadcasts, plus the final decide-advance round.
    assert result.metrics.messages_sent == 4 * n * (n - 1)
    assert result.metrics.messages_delivered == result.metrics.messages_sent
    assert result.metrics.bits_sent > 0
    assert result.rounds >= 4


def test_decision_rounds_recorded():
    n = 3
    network = SyncNetwork([Chatter(pid, n, rounds=2) for pid in range(n)])
    result = network.run()
    assert set(result.decision_rounds) == {0, 1, 2}
    assert result.time_to_agreement() == max(result.decision_rounds.values()) + 1


def test_max_rounds_enforced():
    class Forever(SyncProcess):
        def program(self, env):
            while True:
                yield

    network = SyncNetwork([Forever(0, 1)], max_rounds=10)
    with pytest.raises(
        LockstepError, match="did not terminate within 10 rounds; 1 processes"
    ):
        network.run()
    assert network.round == 10


def test_pid_position_mismatch_rejected():
    with pytest.raises(ValueError):
        SyncNetwork([EchoOnce(1, 2), EchoOnce(0, 2)])


def test_process_size_mismatch_rejected():
    with pytest.raises(ValueError):
        SyncNetwork([EchoOnce(0, 3)])


def test_invalid_fault_budget_rejected():
    with pytest.raises(ValueError):
        SyncNetwork([EchoOnce(0, 1)], t=1)


class CorruptAndOmitAll(Adversary):
    """Corrupts process 0 in round 0 and omits everything it sends."""

    def act(self, view):
        corrupt = frozenset({0}) if view.round == 0 else frozenset()
        return AdversaryAction(
            corrupt=corrupt,
            omit=view.message_indices_from({0}),
        )


def test_omissions_silence_faulty_sender():
    n = 3
    processes = [EchoOnce(pid, n) for pid in range(n)]
    network = SyncNetwork(processes, adversary=CorruptAndOmitAll(), t=1)
    result = network.run()
    assert result.faulty == frozenset({0})
    assert result.decisions[1] == (2,)
    assert result.decisions[2] == (1,)
    # Process 0 still hears the others (only ITS messages were dropped).
    assert result.decisions[0] == (1, 2)
    assert result.metrics.messages_omitted == 2


class OverBudget(Adversary):
    def act(self, view):
        if view.round == 0:
            return AdversaryAction(corrupt=frozenset({0, 1}))
        return AdversaryAction.nothing()


def test_corruption_budget_enforced():
    network = SyncNetwork(
        [EchoOnce(pid, 3) for pid in range(3)], adversary=OverBudget(), t=1
    )
    with pytest.raises(AdversaryProtocolError):
        network.run()


class IllegalOmission(Adversary):
    def act(self, view):
        if view.messages:
            return AdversaryAction(omit=frozenset({0}))
        return AdversaryAction.nothing()


def test_omission_requires_faulty_endpoint():
    network = SyncNetwork(
        [EchoOnce(pid, 2) for pid in range(2)], adversary=IllegalOmission(), t=1
    )
    with pytest.raises(AdversaryProtocolError):
        network.run()


class OutOfRangeOmission(Adversary):
    def act(self, view):
        return AdversaryAction(omit=frozenset({10_000}))


def test_omission_index_validated():
    network = SyncNetwork(
        [EchoOnce(pid, 2) for pid in range(2)],
        adversary=OutOfRangeOmission(),
        t=1,
    )
    with pytest.raises(AdversaryProtocolError):
        network.run()


class OneAction(Adversary):
    """Plays one raw action in round 0, exactly as given."""

    def __init__(self, corrupt, omit):
        self.action = AdversaryAction(corrupt=frozenset(corrupt), omit=frozenset(omit))

    def act(self, view):
        return self.action if view.round == 0 else AdversaryAction.nothing()


def ben_or_under(corrupt, omit):
    return execute(
        "ben-or", [pid % 2 for pid in range(8)], t=1,
        adversary=OneAction(corrupt, omit), seed=1,
    )


@pytest.mark.parametrize(
    "corrupt,omit,entry",
    [
        ({0}, {1.5}, 1.5),
        ({0}, {"1"}, "1"),
        ({0}, {2**70}, 2**70),
        ({0}, {"1", 2}, "1"),
        ({1.5}, set(), 1.5),
        ({0.0}, set(), 0.0),
    ],
    ids=["omit-float", "omit-str", "omit-2**70", "omit-str-and-int",
         "corrupt-float", "corrupt-float-zero"],
)
def test_malformed_action_is_a_protocol_error(corrupt, omit, entry):
    """An action entry that is not an integer, or is out of range, is an
    AdversaryProtocolError naming it — never silently coerced to a copy
    or a pid, never a bare OverflowError or TypeError."""
    with pytest.raises(AdversaryProtocolError, match=re.escape(repr(entry))):
        ben_or_under(corrupt, omit)


def test_numpy_integer_action_is_accepted():
    plain = ben_or_under({0}, {1})
    numpy = ben_or_under({np.int64(0)}, {np.int32(1)})
    assert plain.result.metrics.messages_omitted == 1
    assert result_to_dict(numpy.result) == result_to_dict(plain.result)


@pytest.mark.parametrize("transport", [None, "tcp"])
def test_one_batch_per_round(monkeypatch, transport):
    """The round loop builds one MessageBatch per round with traffic and
    none for the terminal phase; a TCP worker (a fork of this process)
    builds none: it ships its four send columns."""
    built = []
    coordinator = os.getpid()
    init = MessageBatch.__init__

    def counted(self, *args, **kwargs):
        assert os.getpid() == coordinator, "a TCP worker built a MessageBatch"
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MessageBatch, "__init__", counted)
    run = execute("ben-or", [pid % 2 for pid in range(8)], t=0, seed=1, transport=transport)
    assert not run.result.faulty
    assert len(built) == run.result.metrics.rounds > 0


class LivenessRecount(RoundObserver):
    """Checks the core's kept liveness against a recount of its programs
    at every round boundary."""

    def __init__(self):
        self.checks = 0

    def check(self, network):
        core = network.core
        ended = frozenset(
            pid for pid, program in enumerate(core.programs) if program is None
        )
        assert core.live_count == core.n - len(ended)
        assert network.terminated_set() == ended
        mask = core.live_mask()
        if ended:
            assert list(mask) == [pid not in ended for pid in range(core.n)]
        else:
            assert mask is None
        self.checks += 1

    def on_round_start(self, round_no, network):
        self.check(network)

    def on_round_end(self, round_no, network):
        self.check(network)


@pytest.mark.parametrize("transport", [None, "tcp"])
def test_liveness_is_kept_not_recounted(transport):
    """``live_count``, ``terminated_set()`` and ``live_mask()`` move when a
    program ends, and equal a recount after every round of a run whose
    processes end in different rounds."""
    n = 5
    recount = LivenessRecount()
    network = SyncNetwork(
        [Chatter(pid, n, rounds=1 + pid % 3) for pid in range(n)],
        observers=[recount],
        transport=transport,
        transport_options={"processes_per_worker": 2} if transport else None,
    )
    result = network.run()
    assert recount.checks == 2 * result.rounds + 1
    assert network.core.live_count == 0
    assert network.terminated_set() == frozenset(range(n))
    assert result.metrics.messages_lost > 0  # copies to processes already done


def test_agreement_value_detects_disagreement():
    class DecideOwnPid(SyncProcess):
        def program(self, env):
            env.decide(self.pid)
            return None
            yield  # pragma: no cover

    network = SyncNetwork([DecideOwnPid(pid, 2) for pid in range(2)])
    result = network.run()
    with pytest.raises(AssertionError, match="agreement violated"):
        result.agreement_value()


def test_agreement_value_detects_non_termination():
    class Silent(SyncProcess):
        def program(self, env):
            yield
            return None

    network = SyncNetwork([Silent(pid, 2) for pid in range(2)])
    result = network.run()
    with pytest.raises(AssertionError, match="termination violated"):
        result.agreement_value()


def test_final_round_sends_are_delivered():
    """Messages queued just before a process returns still go out."""

    class LastWord(SyncProcess):
        def program(self, env):
            if self.pid == 0:
                yield
                env.broadcast("bye")
                env.decide("sender")
                return None
            inbox = yield
            inbox = yield
            env.decide([m.payload for m in inbox])
            return None

    network = SyncNetwork([LastWord(pid, 2) for pid in range(2)])
    result = network.run()
    assert result.decisions[1] == ["bye"]


def test_messages_to_terminated_recipients_counted_as_lost():
    """Delivered counters agree on which messages they count; traffic to
    terminated recipients is accounted as lost, in neither of them."""

    class QuickDecider(SyncProcess):
        def program(self, env):
            env.decide("gone")
            return None
            yield  # pragma: no cover

    class LateSender(SyncProcess):
        def program(self, env):
            yield  # round 0: silent; peer terminates this round
            env.broadcast("too late")
            env.decide("sent")
            return None

    network = SyncNetwork([QuickDecider(0, 2), LateSender(1, 2)])
    result = network.run()
    metrics = result.metrics
    assert metrics.messages_sent == 1
    assert metrics.messages_delivered == 0
    assert metrics.bits_delivered == 0
    assert metrics.messages_lost == 1
    assert metrics.bits_lost > 0
    assert (
        metrics.messages_delivered
        + metrics.messages_omitted
        + metrics.messages_lost
        == metrics.messages_sent
    )


def test_delivery_counters_agree_on_delivered_set():
    """bits_delivered covers exactly the messages in messages_delivered."""
    n = 3
    network = SyncNetwork([Chatter(pid, n, rounds=3) for pid in range(n)])
    result = network.run()
    metrics = result.metrics
    assert metrics.messages_delivered == metrics.messages_sent
    assert metrics.bits_delivered == metrics.bits_sent
    assert metrics.messages_lost == 0
    assert metrics.bits_lost == 0


def test_randomness_metered_into_result():
    class Flipper(SyncProcess):
        def program(self, env):
            env.random.bit()
            env.random.bits(7)
            env.decide(0)
            return None
            yield  # pragma: no cover

    network = SyncNetwork([Flipper(0, 1)], seed=5)
    result = network.run()
    assert result.metrics.random_calls == 2
    assert result.metrics.random_bits == 8
    assert result.randomness_per_process == [(2, 8)]


def test_runs_reproducible_for_same_seed():
    def run_once():
        class Flip(SyncProcess):
            def program(self, env):
                env.decide(env.random.bits(32))
                return None
                yield  # pragma: no cover

        network = SyncNetwork([Flip(pid, 3) for pid in range(3)], seed=11)
        return network.run().decisions

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# The one round loop (``SyncNetwork.run``).
class HookOrder(RoundObserver):
    def __init__(self):
        self.calls = []

    def on_round_start(self, round_no, network):
        self.calls.append(("round_start", round_no))

    def on_messages_sent(self, round_no, outbound, network):
        self.calls.append(("messages_sent", round_no))

    def on_adversary_action(self, round_no, view, action, network):
        self.calls.append(("adversary_action", round_no))

    def on_deliveries(self, round_no, delivered, lost, network):
        self.calls.append(("deliveries", round_no))

    def on_transport(self, round_no, samples, network):
        self.calls.append(("transport", round_no))

    def on_round_end(self, round_no, network):
        self.calls.append(("round_end", round_no))


def test_round_hooks_run_in_the_fixed_order(monkeypatch):
    """Every round: start, sent, adversary, deliveries, transport (when the
    core drained link samples), end.  The terminal phase, which only
    decides, sends nothing and is no round: observers see its unmatched
    start, and the metering identity holds exactly in every round."""
    log = HookOrder()
    network = SyncNetwork(
        [Chatter(pid, 3, rounds=2) for pid in range(3)],
        observers=[log, InvariantObserver()],
    )
    sample = LinkSample(worker=0, pids=(0,), round=0, latency_s=0.0,
                        bytes_sent=1, bytes_received=1)
    monkeypatch.setattr(
        ExecutionCore, "drain_link_samples", lambda self: (sample,)
    )
    result = network.run()
    cycle = ["round_start", "messages_sent", "adversary_action",
             "deliveries", "transport", "round_end"]
    assert log.calls == [
        (hook, round_no) for round_no in range(2) for hook in cycle
    ] + [("round_start", 2)]
    assert result.rounds == network.round == 2
    assert set(result.decisions.values()) == {"done"}


def test_parent_format_lockstep_recipe_replays():
    """Recipes written while the round model was an axis name it; a
    lockstep one loads as the same recipe and replays to its fingerprint.
    (The committed golden recipe predates the keys.)"""
    golden = json.loads(GOLDEN.read_text())
    recipe = recipe_from_payload(
        dict(golden, execution_model="lockstep", model_options={})
    )
    assert recipe == recipe_from_payload(golden)
    report = replay(recipe)
    assert report.ok, report.summary()
