"""Always-on consensus invariant observers.

The tests assert agreement/validity *after* a run; the fuzzer wants the
violation pinned to the round it first became observable.
:class:`InvariantObserver` rides the engine's observer bus and raises
:class:`InvariantViolation` — carrying the invariant name, the offending
round and a human-readable detail — the moment a check fails:

* **budget** — the cumulative corrupted set never exceeds ``t``
  (a second line of defence behind the engine's own validation);
* **conservation** — metering balances *per round*: the messages sent in
  each round equal that round's delivered + omitted + lost (the metering
  identity pinned in :mod:`repro.runtime.metrics`, with omission taking
  precedence over loss), cumulative delivered/lost bits never exceed
  sent bits (omitted *bits* are not metered separately, so bits get an
  inequality where messages get an identity), and at run end the
  per-round message series sums to the total;
* **sizing** — every queued record carries exactly ``payload_bits`` of its
  payload plus the per-message overhead, so a send that states its own
  size (``ProcessEnv.send_many(..., size=)``) cannot drift from the rule;
* **agreement** — non-faulty decided processes never hold two different
  decision values, checked as decisions appear, not just at the end;
* **validity** — when the input vector is known, every non-faulty
  decision is one of the inputs;
* **termination** — at run end, every non-faulty process has decided.

Observers are passive; raising from a hook aborts the run, which is the
point — the traceback identifies the first bad round, and ``repro.replay``
catches the violation to save a recipe for it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from ..runtime import MESSAGE_OVERHEAD_BITS, RoundObserver, payload_bits

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..runtime import (
        AdversaryAction,
        ExecutionResult,
        NetworkView,
        SyncNetwork,
    )


class InvariantViolation(AssertionError):
    """A consensus or metering invariant failed mid-run.

    Subclasses ``AssertionError`` so existing ``pytest.raises`` /
    harness-level catches keep working; adds structure for recipes.
    """

    def __init__(self, invariant: str, round_no: int | None, detail: str) -> None:
        super().__init__(
            f"{invariant} violated"
            + (f" at round {round_no}" if round_no is not None else "")
            + f": {detail}"
        )
        self.invariant = invariant
        self.round = round_no
        self.detail = detail

    def payload(self) -> dict[str, Any]:
        """JSON-safe description stored in a recipe's ``expected_failure``."""
        return {
            "invariant": self.invariant,
            "round": self.round,
            "detail": self.detail,
        }


def _distinct_decisions(decisions: dict[int, Any]) -> list[Any]:
    """Unique decision values without requiring hashability."""
    distinct: list[Any] = []
    for value in decisions.values():
        if not any(value == seen for seen in distinct):
            distinct.append(value)
    return distinct


class InvariantObserver(RoundObserver):
    """Trip :class:`InvariantViolation` at the first bad round.

    ``inputs`` enables the validity check; leave it ``None`` for
    protocols whose decisions are not drawn from an input vector (TRB
    follows the sender, collectors decide sets, ...).
    """

    def __init__(self, inputs: Sequence[int] | None = None) -> None:
        self.inputs = tuple(inputs) if inputs is not None else None
        # Cumulative metering totals at the end of the previous round, so
        # the conservation identity is checked on per-round deltas — a
        # round that under- or over-counts cannot hide behind an earlier
        # compensating error.
        self._seen_totals = (0, 0, 0, 0)

    # ------------------------------------------------------------------
    def _check_agreement(
        self, decisions: dict[int, Any], faulty: frozenset[int],
        round_no: int | None,
    ) -> None:
        honest = {
            pid: value
            for pid, value in decisions.items()
            if pid not in faulty
        }
        distinct = _distinct_decisions(honest)
        if len(distinct) > 1:
            raise InvariantViolation(
                "agreement", round_no,
                f"non-faulty decisions diverge: {honest}",
            )

    def _check_validity(
        self, decisions: dict[int, Any], faulty: frozenset[int],
        round_no: int | None,
    ) -> None:
        if self.inputs is None:
            return
        legal = list(self.inputs)
        for pid, value in decisions.items():
            if pid in faulty:
                continue
            if not any(value == candidate for candidate in legal):
                raise InvariantViolation(
                    "validity", round_no,
                    f"process {pid} decided {value!r}, not an input value",
                )

    # ------------------------------------------------------------------
    def on_adversary_action(
        self,
        round_no: int,
        view: NetworkView,
        action: AdversaryAction,
        network: SyncNetwork,
    ) -> None:
        if len(network.faulty) > network.t:
            raise InvariantViolation(
                "budget", round_no,
                f"{len(network.faulty)} corrupted processes exceed t="
                f"{network.t}",
            )
        batch = view.messages
        for sender, payload, queued in zip(batch.senders, batch.payloads, batch.bits):
            bits = payload_bits(payload) + MESSAGE_OVERHEAD_BITS
            if queued != bits:
                raise InvariantViolation(
                    "sizing", round_no,
                    f"process {sender} queued {payload!r} as "
                    f"{queued} bits, payload_bits + overhead is {bits}",
                )

    def on_run_start(self, network: SyncNetwork) -> None:
        metrics = network.metrics
        self._seen_totals = (
            metrics.messages_sent,
            metrics.messages_delivered,
            metrics.messages_omitted,
            metrics.messages_lost,
        )

    def on_round_end(self, round_no: int, network: SyncNetwork) -> None:
        metrics = network.metrics
        seen_sent, seen_delivered, seen_omitted, seen_lost = self._seen_totals
        self._seen_totals = (
            metrics.messages_sent,
            metrics.messages_delivered,
            metrics.messages_omitted,
            metrics.messages_lost,
        )
        round_sent = metrics.messages_sent - seen_sent
        round_balance = (
            (metrics.messages_delivered - seen_delivered)
            + (metrics.messages_omitted - seen_omitted)
            + (metrics.messages_lost - seen_lost)
        )
        if round_balance != round_sent:
            raise InvariantViolation(
                "conservation", round_no,
                f"round sent={round_sent} != round delivered+omitted+lost"
                f"={round_balance} (cumulative sent="
                f"{metrics.messages_sent})",
            )
        if metrics.bits_delivered + metrics.bits_lost > metrics.bits_sent:
            raise InvariantViolation(
                "conservation", round_no,
                f"delivered+lost bits {metrics.bits_delivered}+"
                f"{metrics.bits_lost} exceed bits_sent={metrics.bits_sent}",
            )
        decisions = network.current_decisions()
        faulty = frozenset(network.faulty)
        self._check_agreement(decisions, faulty, round_no)
        self._check_validity(decisions, faulty, round_no)

    def on_run_end(
        self, result: ExecutionResult, network: SyncNetwork
    ) -> None:
        metrics = result.metrics
        if sum(metrics.messages_per_round) != metrics.messages_sent:
            raise InvariantViolation(
                "conservation", None,
                f"per-round messages sum to {sum(metrics.messages_per_round)}"
                f", messages_sent={metrics.messages_sent}",
            )
        self._check_agreement(result.decisions, result.faulty, None)
        self._check_validity(result.decisions, result.faulty, None)
        undecided = [
            pid
            for pid in range(result.n)
            if pid not in result.faulty and pid not in result.decisions
        ]
        if undecided:
            raise InvariantViolation(
                "termination", None,
                f"non-faulty processes {undecided} never decided",
            )
