"""The benchmark's own span observer: times every engine phase from outside.

It rides the public :class:`repro.runtime.RoundObserver` bus and nothing
else, so it keeps working when the in-tree profilers are folded into one
report.  Each hook closes the span of the phase that just ended, which makes
the phases tile the run exactly:

    op = harness.startup + runtime.loop + harness.teardown
    runtime.loop = <layer>.compute + adversary.act + delivery.deliver
                   + runtime.round_tail

``round_tail`` is everything between ``on_deliveries`` and the next
``on_round_start`` (transport drain, other observers, termination checks,
round-model scheduling).  Optional attributes of engine objects are read
with ``getattr`` defaults.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.runtime import RoundObserver

#: Span tuple layout, as dumped to ``out/``.
SPAN_FIELDS = ("name", "start", "end", "parent", "op")


class SpanObserver(RoundObserver):
    """Collects spans and per-layer counts for the ops of one traced pass."""

    def __init__(self, compute_layer: str, capture: bool = False) -> None:
        self.compute = f"{compute_layer}.compute_s"
        #: Keep every record's payload for sizing after the op.  Holding
        #: ~800k payloads alive costs an Algorithm 1 op ~10%, so the ops
        #: that are timed per layer run without it.
        self.capture = capture
        self.spans: list[list] = []  # SPAN_FIELDS; parent is a span index
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.round_s: list[float] = []
        self.payloads: list = []  # record payloads of the current op
        self._op = self._op_span = self._loop_span = -1
        self._mark = 0.0
        self._round_mark: float | None = None
        self._computing = False

    # -- op boundaries, called by the driver around execute() -----------
    def begin_op(self, op: int) -> None:
        self._op = op
        self.payloads = []
        self._mark = time.perf_counter()
        self._op_span = self._open("op", -1)

    def end_op(self) -> float:
        """Close the op; returns its wall time as the spans saw it."""
        self._cut("harness.teardown_s", self._op_span)
        span = self.spans[self._op_span]
        span[2] = self._mark
        return span[2] - span[1]

    def _open(self, name: str, parent: int) -> int:
        self.spans.append([name, self._mark, None, parent, self._op])
        return len(self.spans) - 1

    def _cut(self, name: str, parent: int) -> float:
        now = time.perf_counter()
        self.spans.append([name, self._mark, now, parent, self._op])
        self.seconds[name] += now - self._mark
        self._mark = now
        return now

    # -- observer bus ----------------------------------------------------
    def on_run_start(self, network) -> None:
        self._cut("harness.startup_s", self._op_span)
        self._round_mark = None
        self._loop_span = self._open("runtime.loop_s", self._op_span)

    def on_round_start(self, round_no, network) -> None:
        now = self._cut("runtime.round_tail_s", self._loop_span)
        if self._round_mark is not None:
            self.round_s.append(now - self._round_mark)
        self._round_mark = now
        self._computing = True

    def on_messages_sent(self, round_no, outbound, network) -> None:
        self._cut(self.compute, self._loop_span)
        self._computing = False
        self.counts["runtime.rounds"] += 1
        self.counts["runtime.copies"] += len(outbound)
        records = getattr(outbound, "records", None)
        if records is not None:
            self.counts["runtime.records"] += len(records)
            if self.capture:
                self.payloads.extend(
                    [getattr(record, "payload", None) for record in records]
                )

    def on_adversary_action(self, round_no, view, action, network) -> None:
        self._cut("adversary.act_s", self._loop_span)
        self.counts["adversary.omitted"] += len(action.omit)
        self.counts["adversary.corrupted"] += len(action.corrupt)

    def on_deliveries(self, round_no, delivered, lost, network) -> None:
        self._cut("delivery.deliver_s", self._loop_span)
        self.counts["delivery.delivered"] += len(delivered)
        self.counts["delivery.lost"] += len(lost)

    def on_transport(self, round_no, samples, network) -> None:
        self.counts["transport.frames"] += len(samples)
        for sample in samples:
            self.counts["transport.bytes_sent"] += sample.bytes_sent
            self.counts["transport.bytes_received"] += sample.bytes_received
            self.counts["transport.retries"] += sample.retries
            self.counts["transport.link_failures"] += not sample.ok
        # One dispatch may carry the handshake (round -1) and a step.
        slowest: dict[int, float] = {}
        for sample in samples:
            slowest[sample.round] = max(
                slowest.get(sample.round, 0.0), sample.latency_s
            )
        self.seconds["transport.link_wait_s"] += sum(slowest.values())

    def on_run_end(self, result, network) -> None:
        # The last local-computation phase may end the run without sending:
        # an unmatched on_round_start, still protocol compute.
        name = self.compute if self._computing else "runtime.round_tail_s"
        now = self._cut(name, self._loop_span)
        self._computing = False
        loop = self.spans[self._loop_span]
        loop[2] = now
        self.seconds["runtime.loop_s"] += now - loop[1]
