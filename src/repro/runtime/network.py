"""The synchronous message-passing engine with an adaptive-adversary hook.

Each simulated round follows the paper's two-phase structure (Section 2):

1. *Local computation phase* — every live process's generator is resumed with
   the previous round's (post-omission) inbox; it updates state, draws metered
   randomness, and queues outgoing messages.
2. *Communication phase* — the adversary observes everything (full
   information: process states, this round's outbound messages, randomness
   already drawn) and returns an :class:`AdversaryAction`: which processes to
   newly corrupt and which faulty-incident messages to omit.  The engine
   validates legality (corruption budget, omissions only at faulty processes)
   and delivers the surviving messages, to be consumed next round.

The round's outbound traffic is a flat :class:`MessageBatch` over the four
send columns the processes appended to (sender, fan-out tuple, payload,
bits: one entry per send call, however many recipients).  Omit indices
address the batch's flat per-copy positions, so adversary semantics,
sender-ordered inboxes, and every :class:`Metrics` counter are
byte-identical to an execution that queued one :class:`Message` per copy,
while the engine sizes, meters, and dispatches broadcast traffic per
record instead of per copy.

The engine never trusts the strategy: illegal actions raise
:class:`AdversaryProtocolError`.

Instrumentation rides a first-class observer bus
(:class:`repro.runtime.observers.RoundObserver`): the engine natively
dispatches ``on_run_start`` / ``on_round_start`` / ``on_messages_sent`` /
``on_adversary_action`` / ``on_deliveries`` / ``on_transport`` (rounds
with real-link measurements only) / ``on_round_end`` / ``on_run_end``.
The engine's own account of the run — :class:`Metrics`, the omission and
corruption schedule, the phase timings — is the first observer on every
network (:class:`~repro.runtime.report.RunReport`, ``network.report``), so
user observers see consistent series without wrapping the adversary or
monkeypatching hooks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence
from numbers import Integral
from typing import Any

from . import delivery
from .engine import ExecutionCore, ExecutionResult
from .messages import MessageBatch
from .observers import RoundObserver
from .process import SyncProcess
from .randomness import stable_seed
from .report import RunReport

__all__ = [
    "Adversary",
    "AdversaryAction",
    "AdversaryContext",
    "AdversaryProtocolError",
    "ExecutionResult",
    "LockstepError",
    "NetworkView",
    "SyncNetwork",
    "canonical_omissions",
]


class AdversaryProtocolError(RuntimeError):
    """Raised when an adversary strategy violates the model's rules."""


def canonical_omissions(indices: Iterable[int]) -> tuple[int, ...]:
    """Canonical form of a round's omit indices: sorted and de-duplicated.

    The single choke point for omission-schedule normalization: the engine
    canonicalizes every :class:`AdversaryAction` before validating,
    metering, or dispatching it to observers; the replay recorder, the
    recipe serializer, and :class:`~repro.adversary.ScriptedAdversary`
    normalize through the same function.  An adversary that emits the same
    flat index twice (easy to do when building ``omit`` from overlapping
    per-target index sets) therefore omits one copy, is metered for one
    copy, and records/replays as one copy.
    """
    return tuple(sorted(set(indices)))


class LockstepError(RuntimeError):
    """Raised when processes fall out of lockstep (a protocol bug)."""


@dataclass(slots=True)
class AdversaryAction:
    """What the adversary does between the two phases of one round.

    Attributes
    ----------
    corrupt:
        Process ids to corrupt *now* (before this round's delivery); they may
        already have messages in flight this round, all of which become
        omittable.
    omit:
        Indices into the round's message list to omit.  Every index must point
        at a message whose sender or recipient is faulty after the new
        corruptions are applied.
    """

    corrupt: frozenset[int] = frozenset()
    omit: frozenset[int] = frozenset()

    @staticmethod
    def nothing() -> AdversaryAction:
        return AdversaryAction()


@dataclass(slots=True, eq=False)
class NetworkView:
    """Read-only full-information snapshot handed to the adversary.

    The adversary sees process objects (and thus their entire state), the
    round's outbound messages, who is already faulty, and the remaining
    corruption budget.  It cannot see *future* random bits because they have
    not been drawn yet.
    """

    round: int
    processes: Sequence[SyncProcess]
    #: The round's outbound traffic: its :class:`MessageBatch`, a flat
    #: per-copy sequence where a fan-out's copies occupy consecutive indices
    #: and materialize lazily on ``view.messages[i]`` / iteration.  Omit
    #: indices address these flat positions.
    messages: MessageBatch
    faulty: frozenset[int]
    budget_left: int
    decisions: Mapping[int, Any]
    terminated: frozenset[int]

    # Convenience helpers used by concrete strategies -------------------
    def _copy_indices(self, pids: Iterable[int], sent: bool, received: bool) -> frozenset[int]:
        """The one index query behind the three public helpers.

        Answers for the asked pids only: the sender side from record
        ranges, the recipient side from the round's one recipient sort
        (which delivery reuses).

        **Insertion-order contract.**  The ``frozenset`` is built from one
        fixed list — per pid ascending: its sent copies ascending, then its
        received copies ascending, duplicates included.  Iteration order of
        a set of ints depends on the insertion sequence once indices
        collide modulo the table size, and ``RandomOmissionAdversary``
        assigns its draws in that order: the same elements inserted
        otherwise (one sorted ``np.isin`` select, say) silently move every
        random-omission schedule and golden fingerprint.
        """
        asked = sorted(set(pids))
        if not asked:
            return frozenset()
        by_sender, by_recipient = self.messages.copy_indices(
            asked if sent else (), asked if received else ()
        )
        indices: list[int] = []
        for pid in asked:
            indices += by_sender.get(pid, ())
            indices += by_recipient.get(pid, ())
        return frozenset(indices)

    def message_indices_touching(self, pids: Iterable[int]) -> frozenset[int]:
        """Indices of messages sent by or to any of ``pids``."""
        return self._copy_indices(pids, sent=True, received=True)

    def message_indices_from(self, pids: Iterable[int]) -> frozenset[int]:
        """Indices of messages sent by any of ``pids``."""
        return self._copy_indices(pids, sent=True, received=False)

    def message_indices_to(self, pids: Iterable[int]) -> frozenset[int]:
        """Indices of messages addressed to any of ``pids``."""
        return self._copy_indices(pids, sent=False, received=True)


@dataclass(frozen=True)
class AdversaryContext:
    """Everything an adversary may inspect before round 0.

    Handed to :meth:`Adversary.setup` by the engine (and by combinators to
    their inner strategies).  ``rng`` is a dedicated, deterministically
    seeded stream — strategies that randomize their setup (target sampling,
    tie breaking) should draw from it instead of global randomness so
    recorded executions replay exactly.
    """

    n: int
    t: int
    processes: tuple[SyncProcess, ...]
    rng: random.Random


class Adversary:
    """Base adversary: corrupts nobody and omits nothing.

    Concrete strategies override :meth:`act`; they may also override
    :meth:`setup` to inspect the system before round 0 (it receives a
    single :class:`AdversaryContext`).
    """

    def setup(self, ctx: AdversaryContext) -> None:
        """Called once before the first round with the run's context."""

    def act(self, view: NetworkView) -> AdversaryAction:
        """Return this round's corruptions and omissions."""
        return AdversaryAction.nothing()


class SyncNetwork:
    """The engine facade: drives lockstep rounds over two layers.

    A network owns one :class:`~repro.runtime.engine.ExecutionCore` (the
    processes and their metered randomness) and drives the communication
    phase through :mod:`repro.runtime.delivery`'s functions.  The network
    itself is the round loop (:meth:`run`), the adversary-arbitration
    surface and the observer-dispatch surface: batch construction, view
    construction, action validation, and the fixed hook sequence all live
    here.

    The ``transport`` name (:mod:`repro.transport`) decides *where* the
    processes physically execute: by default in this interpreter, with
    ``"tcp"`` in real OS worker processes behind the same
    :class:`~repro.runtime.engine.ExecutionCore` surface — crash faults
    it detects are folded into the adversary arbitration as corruptions
    plus omissions, and its per-link measurements reach observers via the
    ``on_transport`` hook.
    """

    def __init__(
        self,
        processes: Sequence[SyncProcess],
        adversary: Adversary | None = None,
        t: int = 0,
        seed: int = 0,
        max_rounds: int = 100_000,
        observers: Sequence[RoundObserver] = (),
        transport: str | None = None,
        transport_options: Mapping[str, Any] | None = None,
    ) -> None:
        from ..transport import create_core

        # Checked before the core exists (a TCP core forks its workers);
        # an empty process list is the core's error.
        n = len(processes)
        if n and not 0 <= t < n:
            raise ValueError(f"fault budget t={t} must satisfy 0 <= t < n={n}")
        self._core = create_core(
            processes,
            seed=seed,
            transport=transport,
            transport_options=transport_options,
            mirror=adversary is not None or bool(observers),
        )

        self.processes = self._core.processes
        self.n = n
        self.t = t
        self.seed = seed
        self.adversary = adversary if adversary is not None else Adversary()
        self.max_rounds = max_rounds
        self.metrics = self._core.metrics
        self.faulty: set[int] = set()
        self.round = 0
        # Per-round delivery totals kept by the delivery step so the
        # report does not need a second O(copies) pass.
        self._delivered_bits = 0
        self._lost_bits = 0
        #: The engine's account of the run, first on the observer bus so
        #: user observers read up-to-date Metrics series.
        self.report = RunReport(self.metrics)
        #: The attached observers, the engine's own :attr:`report` first.
        self.observers: tuple[RoundObserver, ...] = (self.report, *observers)

        self.sources = self._core.sources
        self.envs = self._core.envs
        # Alias into the core, which mutates the container in place.
        self._inboxes = self._core.inboxes

    # ------------------------------------------------------------------
    @property
    def core(self) -> ExecutionCore:
        """The execution layer: process advancement and metering."""
        return self._core

    def terminated_set(self) -> frozenset[int]:
        return self._core.terminated_set()

    def _apply_adversary(self, batch: MessageBatch) -> tuple[int, ...]:
        """Communication phase: let the adversary corrupt and omit.

        Returns the validated, canonical (sorted, de-duplicated) omitted
        flat message indices; the delivery step skips them without
        rebuilding the batch.  Observers — including the metrics
        accounting and the replay recorder — are dispatched a
        canonicalized :class:`AdversaryAction`, so duplicate indices in a
        strategy's raw action are coalesced before anything downstream
        counts or serializes them (see :func:`canonical_omissions`).
        """
        view = NetworkView(
            round=self.round,
            processes=self.processes,
            messages=batch,
            faulty=frozenset(self.faulty),
            budget_left=self.t - len(self.faulty),
            decisions=self.current_decisions(),
            terminated=self.terminated_set(),
        )
        action = self.adversary.act(view)

        # Crash faults detected by the transport (a worker process died or
        # a link timed out) are arbitrated exactly like adversarial
        # corruptions: they consume the same t budget, and every copy the
        # dead processes touched this round is omitted — so real network
        # failures land inside the paper's omission-fault model rather
        # than outside the metering identity.
        transport_faults = self._core.drain_faults() - frozenset(self.faulty)

        new_corruptions = (set(action.corrupt) | transport_faults) - self.faulty
        if len(self.faulty) + len(new_corruptions) > self.t:
            detail = (
                f" (of which transport crash faults: "
                f"{sorted(transport_faults)})"
                if transport_faults
                else ""
            )
            raise AdversaryProtocolError(
                f"corruption budget exceeded: have {len(self.faulty)}, "
                f"tried to add {len(new_corruptions)}, budget t={self.t}"
                + detail
            )
        # Keyed on repr: an entry need not be an int, and the one named
        # must not depend on hash order.
        for pid in sorted(new_corruptions, key=repr):
            if not isinstance(pid, Integral) or not 0 <= pid < self.n:
                raise AdversaryProtocolError(f"cannot corrupt unknown pid {pid!r}")
        self.faulty |= new_corruptions

        raw_omit: Iterable[int] = action.omit
        if transport_faults:
            raw_omit = set(action.omit) | view.message_indices_touching(
                transport_faults
            )
        try:
            omit = canonical_omissions(raw_omit)
        except TypeError:
            # Entries that do not hash or compare with each other; the
            # check below names one that is not an integer.
            omit = tuple(sorted(raw_omit, key=repr))
        delivery.validate_omissions(batch, omit, self.faulty)
        canonical = AdversaryAction(
            corrupt=frozenset(action.corrupt) | transport_faults,
            omit=frozenset(omit),
        )
        for observer in self.observers:
            observer.on_adversary_action(self.round, view, canonical, self)
        return omit

    def _absorb_residual_faults(self) -> None:
        """Fold crash faults the transport detected after the last
        adversary arbitration (e.g. a worker dying during the terminal
        local-computation phase) into the faulty set, still within the
        corruption budget."""
        residual = self._core.drain_faults() - frozenset(self.faulty)
        if not residual:
            return
        if len(self.faulty) + len(residual) > self.t:
            raise AdversaryProtocolError(
                f"corruption budget exceeded: have {len(self.faulty)}, "
                f"transport crash faults add {sorted(residual)}, "
                f"budget t={self.t}"
            )
        self.faulty |= residual

    def current_decisions(self) -> dict[int, Any]:
        return self._core.current_decisions()

    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        """Run lockstep rounds until every process terminates.

        Every round dispatches the same hook sequence: ``on_round_start``
        → ``on_messages_sent`` → ``on_adversary_action`` →
        ``on_deliveries`` → ``on_transport`` (rounds with link samples
        only) → ``on_round_end``.  A terminal local-computation phase
        with no traffic is not a round: observers see its unmatched
        ``on_round_start``.  Raises :class:`LockstepError` at
        ``max_rounds``.
        """
        observers = self.observers
        core = self.core
        try:
            self.adversary.setup(
                AdversaryContext(
                    n=self.n,
                    t=self.t,
                    processes=tuple(self.processes),
                    rng=random.Random(
                        stable_seed(self.seed, "adversary-setup")
                    ),
                )
            )
            for observer in observers:
                observer.on_run_start(self)
            while core.live_count > 0:
                if self.round >= self.max_rounds:
                    raise LockstepError(
                        f"protocol did not terminate within {self.max_rounds} "
                        f"rounds; {core.live_count} processes still live"
                    )
                for observer in observers:
                    observer.on_round_start(self.round, self)
                columns = core.advance(self.round)
                if core.live_count == 0 and not columns[0]:
                    break
                # The round's one batch: its vectors serve the adversary's
                # view, validation and delivery alike.
                outbound = MessageBatch(*columns)
                for observer in observers:
                    observer.on_messages_sent(self.round, outbound, self)
                omitted = self._apply_adversary(outbound)
                # Communication phase: every surviving copy lands now, to
                # be consumed next round; the report reads the bit totals.
                receipt = delivery.deliver(
                    outbound, omitted, self._inboxes, core.live_mask()
                )
                self._delivered_bits = receipt.delivered_bits
                self._lost_bits = receipt.lost_bits
                for observer in observers:
                    observer.on_deliveries(
                        self.round, receipt.delivered, receipt.lost, self
                    )
                samples = core.drain_link_samples()
                if samples:
                    for observer in observers:
                        observer.on_transport(self.round, samples, self)
                for observer in observers:
                    observer.on_round_end(self.round, self)
                del columns, outbound, receipt  # the inboxes keep what is read
                self.round += 1
            self._absorb_residual_faults()
        finally:
            # Graceful shutdown of transport resources (worker processes,
            # sockets) whether the run finished or raised, set-up
            # included; a no-op in-process.
            self._core.close()

        self._core.record_randomness()
        result = self._core.build_result(frozenset(self.faulty))
        result.report = self.report
        for observer in observers:
            observer.on_run_end(result, self)
        return result
