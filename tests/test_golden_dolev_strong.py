"""Dolev-Strong, standalone and as Algorithm 1's fallback, is byte-stable.

``tests/data/golden-dolev-strong.json`` was generated at the commit *before*
the receive loop started looking a source up ahead of walking its chain (and
before ``GroupBitsSpreading`` moved to bitmask queues and run multicasts), so
every value in it — decisions, every ``Metrics`` total, the per-round trace
and the per-round flat copy order with payloads and bit sizes — has to be
reproduced exactly.  Every case pins its round model, so both
``--execution-model`` arms check the same bytes.

Regenerate (only when a simulated statistic is *meant* to move)::

    PYTHONPATH=src python -m tests.test_golden_dolev_strong
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.adversary import (
    RandomOmissionAdversary,
    SilenceAdversary,
    StaticCrashAdversary,
)
from repro.harness import execute
from repro.runtime import RoundObserver

GOLDEN_PATH = Path(__file__).parent / "data" / "golden-dolev-strong.json"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class FlatCopyRecorder(RoundObserver):
    """Per round: the flat ``(sender, recipient, payload, bits)`` copies the
    processes queued, and the ``(sender, recipient)`` copies that reached an
    inbox, in engine order."""

    def __init__(self):
        self.sent = []
        self.delivered = []

    def on_messages_sent(self, round_no, outbound, network):
        self.sent.append(
            [(m.sender, m.recipient, m.payload, m.bits) for m in outbound]
        )

    def on_deliveries(self, round_no, delivered, lost, network):
        self.delivered.append([(m.sender, m.recipient) for m in delivered])


class RoundRecorder(RoundObserver):
    """Per round: traffic and omissions (from the run report), the newly
    corrupted and newly decided pids, and each process's public
    ``b`` / ``operative`` / ``decided`` / ``epoch`` / ``phase`` state."""

    KEYS = ("b", "operative", "decided", "epoch", "phase")

    def __init__(self):
        self.rounds = []
        self.decided = set()

    def on_round_end(self, round_no, network):
        report, metrics = network.report, network.metrics
        newly_decided = tuple(
            env.pid for env in network.envs
            if env.has_decided and env.pid not in self.decided
        )
        self.decided.update(newly_decided)
        sample = {}
        for process in network.processes:
            state = {k: getattr(process, k) for k in self.KEYS if hasattr(process, k)}
            if state:
                sample[process.pid] = state
        self.rounds.append((
            round_no,
            metrics.messages_per_round[round_no],
            metrics.bits_per_round[round_no],
            report.omitted_per_round[round_no],
            tuple(sorted(
                pid for pid, first in report.corruption_rounds.items()
                if first == round_no
            )),
            newly_decided,
            sorted(sample.items()),
        ))


ADVERSARIES = {
    "none": lambda t: None,
    "silence": lambda t: SilenceAdversary(range(t)),
    "random": lambda t: RandomOmissionAdversary(0.3, seed=11),
    # One crash per Dolev-Strong round, so relays die mid-chain.
    "staggered": lambda t: StaticCrashAdversary({k: [k] for k in range(t)}),
}

#: name -> (protocol, n, t, adversary, model, options)
CASES = {
    f"dolev-strong-n{n}-{adversary}": (
        "dolev-strong", n, t, adversary, "lockstep", {}
    )
    for n, t in ((16, 3), (33, 5), (64, 8))
    for adversary in ADVERSARIES
}
CASES["dolev-strong-n16-random-partial-synchrony"] = (
    "dolev-strong", 16, 3, "random", "partial-synchrony", {}
)
# One epoch cannot settle a balanced input, so every run takes lines 17-20;
# the silenced (resp. omitted-from) processes went inoperative in that epoch
# and only a strict subset participates in the fallback.
for _n, _t, _adversary in (
    (33, 1, "silence"), (64, 2, "random"), (100, 3, "silence"), (100, 3, "staggered")
):
    CASES[f"algorithm1-fallback-n{_n}-{_adversary}"] = (
        "algorithm1", _n, _t, _adversary, "lockstep", {"num_epochs": 1}
    )


def fingerprint(name):
    protocol, n, t, adversary, model, options = CASES[name]
    copies, trace = FlatCopyRecorder(), RoundRecorder()
    run = execute(
        protocol,
        [pid % 2 for pid in range(n)],
        t=t,
        adversary=ADVERSARIES[adversary](t),
        seed=7,
        model=model,
        observers=[copies, trace],
        options=options,
    )
    result = run.result
    document = {
        "decisions": _digest(sorted(result.decisions.items())),
        "decision_rounds": _digest(sorted(result.decision_rounds.items())),
        "faulty": sorted(result.faulty),
        "metrics": result.metrics.summary(),
        "trace": _digest(trace.rounds),
        "sent_per_round": [_digest(flat) for flat in copies.sent],
        "delivered_per_round": [_digest(flat) for flat in copies.delivered],
    }
    if protocol == "algorithm1":
        document["fallback_participants"] = sorted(
            p.pid for p in run.processes if p.used_fallback and p.state.operative
        )
    return document


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_is_byte_identical_to_the_pinned_parent(name):
    want = json.loads(GOLDEN_PATH.read_text())[name]
    assert fingerprint(name) == want


@pytest.mark.parametrize(
    "name", sorted(name for name in CASES if name.startswith("algorithm1"))
)
def test_fallback_cases_run_with_a_strict_operative_subset(name):
    participants = json.loads(GOLDEN_PATH.read_text())[name][
        "fallback_participants"
    ]
    assert 0 < len(participants) < CASES[name][1]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: fingerprint(name) for name in sorted(CASES)}, indent=1)
        + "\n"
    )
