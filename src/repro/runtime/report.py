"""One account of a run: the engine's own observer and its JSON schema.

Every :class:`SyncNetwork` installs one :class:`RunReport` first on its
observer bus (``network.report``), and the finished run exposes it as
``ExecutionResult.report``.  It fills the run's :class:`Metrics` — the
paper's rounds, communication bits and random bits, plus the message
counters — and keeps, next to them:

* ``omitted_per_round`` — copies the adversary omitted in each round;
* ``corruption_rounds`` — pid → the round it was first corrupted (the
  schedule ``repro.replay`` records);
* ``decision_rounds`` — pid → the round it first decided (the result's
  map, complete with the terminal local-computation phase);
* ``seconds`` — wall time per phase: ``compute`` (local computation),
  ``adversary`` (view, strategy, validation), ``delivery`` (inbox
  placement), ``overhead`` (the rest of the run: other observers, round
  bookkeeping, set-up and tear-down) and ``wall`` (``on_run_start`` to
  ``on_run_end``).  Four ``perf_counter`` reads per round.

:meth:`RunReport.to_dict` is the one JSON schema; ``seconds`` is its only
key that is not a function of the run's inputs.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from .messages import Message, MessageBatch
from .metrics import Metrics
from .observers import RoundObserver
from .serialization import SCHEMA_VERSION, metrics_to_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from .network import AdversaryAction, ExecutionResult, NetworkView, SyncNetwork

#: The keys of :attr:`RunReport.seconds`, in report order.
PHASES = ("compute", "adversary", "delivery", "overhead", "wall")


class RunReport(RoundObserver):
    """The engine's account of one run (see the module docstring).

    Installed first on the bus, so user observers read up-to-date
    :class:`Metrics` series from their ``on_round_end`` hooks.
    """

    def __init__(self, metrics: Metrics) -> None:
        self.metrics = metrics
        self.omitted_per_round: list[int] = []
        self.corruption_rounds: dict[int, int] = {}
        self.decision_rounds: dict[int, int] = {}
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self._started = 0.0
        self._mark = 0.0

    def _lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._mark
        self._mark = now

    # ------------------------------------------------------------------
    def on_run_start(self, network: SyncNetwork) -> None:
        self._started = time.perf_counter()

    def on_round_start(self, round_no: int, network: SyncNetwork) -> None:
        self._mark = time.perf_counter()

    def on_messages_sent(
        self, round_no: int, outbound: Sequence[Message], network: SyncNetwork
    ) -> None:
        self._lap("compute")
        # A MessageBatch answers the bit total from its records (one term
        # per multicast) instead of materializing every per-copy view.
        if isinstance(outbound, MessageBatch):
            bits = outbound.total_bits()
        else:
            bits = sum(message.bits for message in outbound)
        self.metrics.record_round(len(outbound), bits)

    def on_adversary_action(
        self,
        round_no: int,
        view: NetworkView,
        action: AdversaryAction,
        network: SyncNetwork,
    ) -> None:
        self._lap("adversary")
        self.metrics.record_omissions(len(action.omit))
        self.omitted_per_round.append(len(action.omit))
        for pid in sorted(frozenset(action.corrupt) - view.faulty):
            self.corruption_rounds.setdefault(pid, round_no)

    def on_deliveries(
        self,
        round_no: int,
        delivered: Sequence[Message],
        lost: Sequence[Message],
        network: SyncNetwork,
    ) -> None:
        self._lap("delivery")
        # The engine accumulates delivery bit totals while it expands the
        # batch; fall back to summing for hand-driven dispatch.
        delivered_bits = getattr(network, "_delivered_bits", None)
        if delivered_bits is None:
            delivered_bits = sum(message.bits for message in delivered)
        self.metrics.record_delivery(len(delivered), delivered_bits)
        if lost:
            lost_bits = getattr(network, "_lost_bits", None)
            if lost_bits is None:
                lost_bits = sum(message.bits for message in lost)
            self.metrics.record_lost(len(lost), lost_bits)

    def on_run_end(
        self, result: ExecutionResult, network: SyncNetwork
    ) -> None:
        seconds = self.seconds
        seconds["wall"] = time.perf_counter() - self._started
        seconds["overhead"] = (
            seconds["wall"]
            - seconds["compute"]
            - seconds["adversary"]
            - seconds["delivery"]
        )
        self.decision_rounds = dict(result.decision_rounds)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The report as JSON-safe primitives (the one report schema)."""
        return {
            "schema": SCHEMA_VERSION,
            "metrics": metrics_to_dict(self.metrics),
            "omitted_per_round": list(self.omitted_per_round),
            "corruption_rounds": {
                str(pid): round_no
                for pid, round_no in sorted(self.corruption_rounds.items())
            },
            "decision_rounds": {
                str(pid): round_no
                for pid, round_no in sorted(self.decision_rounds.items())
            },
            "seconds": dict(self.seconds),
        }
