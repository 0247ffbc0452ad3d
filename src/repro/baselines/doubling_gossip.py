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
from collections.abc import Sequence

from ..runtime import (
    Adversary,
    AdversaryAction,
    Message,
    NetworkView,
    ProcessEnv,
    Program,
    SyncProcess,
    inbox_payloads,
    inbox_senders,
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
    (distinct responders heard), ``responses_by_requester`` (answers it
    sent), ``satisfied``.
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
        #: Responses sent, keyed by requester pid.
        self.responses_by_requester: dict[int, int] = {}
        self.satisfied = False

    def _answer_requests(self, env: ProcessEnv, inbox: list[Message]) -> None:
        for sender, payload in zip(inbox_senders(inbox), inbox_payloads(inbox)):
            if isinstance(payload, tuple) and payload and payload[0] == TAG_REQUEST:
                self.responses_by_requester[sender] = (
                    self.responses_by_requester.get(sender, 0) + 1
                )
                env.send(sender, (TAG_RESPONSE, self.pid))

    def _collect_responses(self, inbox: list[Message]) -> None:
        for sender, payload in zip(inbox_senders(inbox), inbox_payloads(inbox)):
            if isinstance(payload, tuple) and payload and payload[0] == TAG_RESPONSE:
                self.responses.add(sender)

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


def measure_amortization(
    n: int,
    t: int,
    seed: int = 0,
) -> dict[str, dict[str, int]]:
    """The workload under no faults / crashes / response-starving.

    Per label, the two numbers whose comparison is the B.3 claim:
    ``victim_requests``, the most requests a victim collector sent (the
    forced Theta(n) escalation under omission), and
    ``responses_to_victims``, the answers healthy processes sent *to* the
    victims (crash: ~0; omission: t(n-t)).
    """
    from ..harness import execute

    victims = range(t)
    results = {}
    for label, adversary in (
        ("none", None),
        ("crash", CrashCollectors(victims) if t else None),
        ("omission", ResponseStarver(victims) if t else None),
    ):
        processes = execute(
            "collectors", n=n, t=t, adversary=adversary, seed=seed
        ).processes
        results[label] = {
            "victim_requests": max(
                (processes[pid].contacted for pid in victims), default=0
            ),
            "responses_to_victims": sum(
                process.responses_by_requester.get(pid, 0)
                for process in processes[t:]
                for pid in victims
            ),
        }
    return results
