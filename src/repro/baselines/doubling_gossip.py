"""The Section-B.3 amortization experiment: doubling strategies vs omissions.

Appendix B.3 explains why the crash-model state of the art ([23], STOC'22)
cannot survive omission faults: those algorithms amortize communication
against fail-stops "e.g., by doubling the number of contacted processes
each time when too few responses are received", and

    "the adversary can control incoming/outgoing messages of the process
    that implements such doubling strategy, and enforce that the process
    inquires Theta(n) other processes before the adversary allows it to
    receive any messages.  This way even a single omission-faulty process
    may contribute linearly to the communication complexity."

This module makes that argument executable.  :class:`DoublingCollector` is
the canonical doubling primitive: it needs ``quorum`` responses and
contacts processes in exponentially growing batches until satisfied.
Against **crashes**, a faulty collector simply stops — zero further cost.
Against **omissions** (:class:`ResponseStarver`), the same faulty collector
keeps running: its requests are delivered (the adversary wants the system
to pay for the answers) while every response back to it is omitted, so it
escalates all the way to contacting everyone — ``Theta(n)`` requests *and*
``Theta(n)`` responses per faulty process.

The measured comparison is ``experiments/E-B3.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from ..runtime import (
    Adversary,
    AdversaryAction,
    Message,
    NetworkView,
    ProcessEnv,
    Program,
    SyncProcess,
)

TAG_REQUEST = 14
TAG_RESPONSE = 15


class DoublingCollector(SyncProcess):
    """Collect ``quorum`` responses via exponentially growing contact waves.

    Wave k contacts the next ``2^k`` not-yet-contacted processes; every
    request is answered in the following round (by any live process).  The
    collector stops as soon as it has heard from ``quorum`` distinct
    responders, or when nobody is left to contact.

    Public state: ``contacted`` (how many requests it sent), ``responses``
    (distinct responders heard), ``satisfied``.
    """

    def __init__(self, pid: int, n: int, quorum: int) -> None:
        super().__init__(pid, n)
        if not 1 <= quorum <= n - 1:
            raise ValueError(
                f"quorum must be in [1, n-1], got {quorum} for n={n}"
            )
        self.quorum = quorum
        self.contacted = 0
        self.responses: set[int] = set()
        self.responses_sent = 0
        #: Responses sent, keyed by requester pid.
        self.responses_by_requester: dict[int, int] = {}
        self.satisfied = False

    def _answer_requests(self, env: ProcessEnv, inbox: list[Message]) -> None:
        for message in inbox:
            if (
                isinstance(message.payload, tuple)
                and message.payload
                and message.payload[0] == TAG_REQUEST
            ):
                self.responses_sent += 1
                self.responses_by_requester[message.sender] = (
                    self.responses_by_requester.get(message.sender, 0) + 1
                )
                env.send(message.sender, (TAG_RESPONSE, self.pid))

    def _collect_responses(self, inbox: list[Message]) -> None:
        for message in inbox:
            if (
                isinstance(message.payload, tuple)
                and message.payload
                and message.payload[0] == TAG_RESPONSE
            ):
                self.responses.add(message.sender)

    def program(self, env: ProcessEnv) -> Program:
        targets = [pid for pid in range(self.n) if pid != self.pid]
        wave = 0
        # Enough waves for the doubling to cover everyone, plus the final
        # response round; all collectors share this schedule (lockstep).
        max_waves = int(math.ceil(math.log2(self.n))) + 2
        while wave < max_waves:
            if not self.satisfied and self.contacted < len(targets):
                batch = targets[self.contacted: self.contacted + (1 << wave)]
                env.send_many(batch, (TAG_REQUEST, self.pid))
                self.contacted += len(batch)
            inbox = yield
            self._answer_requests(env, inbox)
            self._collect_responses(inbox)
            # One extra round so this wave's responses (sent above by the
            # peers) arrive before deciding whether to escalate.
            inbox = yield
            self._answer_requests(env, inbox)
            self._collect_responses(inbox)
            if len(self.responses) >= self.quorum:
                self.satisfied = True
            wave += 1
        env.decide(
            ("satisfied", len(self.responses))
            if self.satisfied
            else ("starved", len(self.responses))
        )
        return None


class CrashCollectors(Adversary):
    """Crash the victim collectors outright: the crash-model comparison.

    A crashed collector sends nothing, so its doubling strategy costs the
    system nothing further — the amortization [23] relies on.
    """

    def __init__(self, victims: Sequence[int]) -> None:
        self.victims = tuple(victims)
        self._started = False

    def act(self, view: NetworkView) -> AdversaryAction:
        corrupt = frozenset()
        if not self._started:
            self._started = True
            corrupt = frozenset(self.victims[: view.budget_left])
        crashed = set(self.victims) & (view.faulty | corrupt)
        return AdversaryAction(
            corrupt=corrupt,
            omit=view.message_indices_touching(crashed),
        )


class ResponseStarver(Adversary):
    """Deliver the victims' requests but omit every response back to them.

    The B.3 omission strategy: the faulty collectors stay "alive" (their
    outgoing requests reach everyone, so everyone pays to answer) while
    their incoming responses vanish — forcing the full doubling escalation.
    """

    def __init__(self, victims: Sequence[int]) -> None:
        self.victims = tuple(victims)
        self._started = False

    def act(self, view: NetworkView) -> AdversaryAction:
        corrupt = frozenset()
        if not self._started:
            self._started = True
            corrupt = frozenset(self.victims[: view.budget_left])
        starved = set(self.victims) & (view.faulty | corrupt)
        omit = frozenset(
            index
            for index, message in enumerate(view.messages)
            if message.recipient in starved
            and isinstance(message.payload, tuple)
            and message.payload
            and message.payload[0] == TAG_RESPONSE
        )
        return AdversaryAction(corrupt=corrupt, omit=omit)


@dataclass(frozen=True)
class AmortizationPoint:
    """One measurement of the doubling-collector workload.

    The B.3 comparison is about what the *healthy* processes pay for the
    faulty collectors: ``healthy_responses`` counts answers sent by
    non-victims (a crashed collector's requests never arrive, an
    omission-starved collector's requests all do), and
    ``victim_requests`` shows the forced Theta(n) escalation.
    """

    n: int
    faulty: int
    messages: int
    bits: int
    victim_requests: int
    healthy_requests_max: int
    healthy_responses: int
    #: Responses healthy processes sent *to the victims* — the direct cost
    #: the victims impose (crash: ~0; omission: ~t * n).
    responses_to_victims: int


def run_collectors(
    n: int,
    t: int,
    adversary: Adversary | None,
    quorum: int | None = None,
    seed: int = 0,
    observers: Sequence = (),
):
    """All n processes collect concurrently under the given adversary.

    Thin wrapper over :func:`repro.harness.execute`; returns a
    :class:`repro.core.consensus.ConsensusRun` (named ``result`` /
    ``processes`` fields — it does not unpack as a tuple).
    """
    from ..harness import execute

    options = {} if quorum is None else {"quorum": quorum}
    return execute(
        "collectors",
        n=n,
        t=t,
        adversary=adversary,
        seed=seed,
        observers=observers,
        options=options,
    )


def measure_amortization(
    n: int,
    t: int,
    seed: int = 0,
) -> dict[str, AmortizationPoint]:
    """Measure the workload under no faults / crashes / response-starving.

    Returns the three labelled points whose comparison is the B.3 claim:
    ``omission.victim_requests ~ n`` while ``crash.victim_requests`` stays
    at the pre-crash waves, and total omission traffic exceeds the crash
    traffic by ~t*n messages.
    """
    victims = tuple(range(t))
    results = {}
    for label, adversary in (
        ("none", None),
        ("crash", CrashCollectors(victims) if t else None),
        ("omission", ResponseStarver(victims) if t else None),
    ):
        run = run_collectors(n, t, adversary, seed=seed)
        result, processes = run.result, run.processes
        victim_requests = max(
            (processes[pid].contacted for pid in victims), default=0
        )
        healthy_requests = [
            process.contacted
            for process in processes
            if process.pid not in victims
        ]
        healthy_responses = sum(
            process.responses_sent
            for process in processes
            if process.pid not in victims
        )
        responses_to_victims = sum(
            count
            for process in processes
            if process.pid not in victims
            for requester, count in process.responses_by_requester.items()
            if requester in victims
        )
        results[label] = AmortizationPoint(
            n=n,
            faulty=t,
            messages=result.metrics.messages_sent,
            bits=result.metrics.bits_sent,
            victim_requests=victim_requests,
            healthy_requests_max=max(healthy_requests, default=0),
            healthy_responses=healthy_responses,
            responses_to_victims=responses_to_victims,
        )
    return results
