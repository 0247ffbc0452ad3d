"""Execution metrics: the paper's three complexity measures plus diagnostics.

Section 2 of the paper defines, per execution, the *time* (rounds until the
last non-faulty process terminates), the *number of communication bits*, and
the *randomness* (random bits / random-source calls).  :class:`Metrics`
accumulates exactly those, plus message counts and per-round series useful for
the benchmark figures.

**Metering identity and precedence.**  Every sent copy is accounted exactly
once per round::

    messages_sent == messages_delivered + messages_omitted + messages_lost

with *omitted taking precedence over lost*: a copy the adversary omits is
counted from the canonical omission schedule and never reaches the
recipient-liveness check, so a copy that is **both** omitted and addressed
to an already-terminated recipient is omitted, not lost.  This is the
single place that rule is pinned; the delivery layer
(:func:`repro.runtime.columnar.plan_delivery`) implements it, and
:class:`repro.replay.invariants.InvariantObserver` asserts the per-round
identity on every run it observes.  Bits follow the same precedence, but
omitted *bits* are not metered separately, so only the inequality
``bits_delivered + bits_lost <= bits_sent`` is checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Metrics:
    """Counters accumulated by :class:`repro.runtime.network.SyncNetwork`."""

    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_omitted: int = 0
    #: Messages that survived the adversary but whose recipient had already
    #: terminated — neither delivered nor omitted.
    messages_lost: int = 0
    bits_sent: int = 0
    bits_delivered: int = 0
    bits_lost: int = 0
    random_calls: int = 0
    random_bits: int = 0
    #: Messages sent in each round, for per-round traffic profiles.
    messages_per_round: list[int] = field(default_factory=list)
    #: Bits sent in each round.
    bits_per_round: list[int] = field(default_factory=list)

    def record_round(self, messages: int, bits: int) -> None:
        """Account one communication phase's sent traffic."""
        self.rounds += 1
        self.messages_sent += messages
        self.bits_sent += bits
        self.messages_per_round.append(messages)
        self.bits_per_round.append(bits)

    def record_delivery(self, messages: int, bits: int) -> None:
        """Account traffic actually placed in a live recipient's inbox."""
        self.messages_delivered += messages
        self.bits_delivered += bits

    def record_lost(self, messages: int, bits: int) -> None:
        """Account traffic dropped because its recipient had terminated."""
        self.messages_lost += messages
        self.bits_lost += bits

    def record_omissions(self, messages: int) -> None:
        """Account messages the adversary omitted this round."""
        self.messages_omitted += messages

    def record_randomness(self, calls: int, bits: int) -> None:
        """Overwrite the randomness totals (sampled from the sources)."""
        self.random_calls = calls
        self.random_bits = bits

    def summary(self) -> dict[str, int]:
        """Scalar totals, convenient for tables and assertions."""
        return {
            "rounds": self.rounds,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_omitted": self.messages_omitted,
            "messages_lost": self.messages_lost,
            "bits_sent": self.bits_sent,
            "bits_delivered": self.bits_delivered,
            "bits_lost": self.bits_lost,
            "random_calls": self.random_calls,
            "random_bits": self.random_bits,
        }

    def __str__(self) -> str:
        parts = ", ".join(f"{key}={value}" for key, value in self.summary().items())
        return f"Metrics({parts})"
