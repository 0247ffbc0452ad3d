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

The round's outbound traffic is a flat :class:`MessageBatch` over the
records the processes queued — point-to-point :class:`Message` objects and
:class:`Multicast` records (one shared payload, one precomputed size, many
recipients).  Omit indices address the batch's flat per-copy positions, so
adversary semantics, sender-ordered inboxes, and every :class:`Metrics`
counter are byte-identical to an execution that queued one
:class:`Message` per copy, while the engine sizes, meters, and dispatches
broadcast traffic per record instead of per copy.

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
from typing import TYPE_CHECKING, Any

from .delivery import Delivery
from .engine import ExecutionCore, ExecutionResult
from .messages import Message, MessageBatch
from .observers import RoundObserver
from .process import SyncProcess
from .randomness import stable_seed
from .report import RunReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..transport import Transport
    from .models import RoundModel

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
    copy, and records/replays as one copy on every engine path.
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
    #: The round's outbound traffic as a flat ``Sequence[Message]`` — a
    #: :class:`MessageBatch` for engine-built views, where multicast copies
    #: occupy consecutive indices and materialize lazily on
    #: ``view.messages[i]`` / iteration.  Omit indices address these flat
    #: positions.
    messages: Sequence[Message]
    faulty: frozenset[int]
    budget_left: int
    decisions: Mapping[int, Any]
    terminated: frozenset[int]

    # Convenience helpers used by concrete strategies -------------------
    def _copy_indices(self, pids: Iterable[int], sent: bool, received: bool) -> frozenset[int]:
        """The one index query behind the three public helpers.

        Answers for the asked pids only, by vectorized selects on the
        round's column vectors.

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
        batch = self.messages
        if not isinstance(batch, MessageBatch):
            batch = MessageBatch(batch)  # a hand-built plain-list view
        by_sender, by_recipient = batch.columns().copy_indices(
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
    """The engine facade: wires scheduler, delivery, and execution layers.

    A network owns one :class:`~repro.runtime.engine.ExecutionCore` (the
    processes and their metered randomness), one
    :class:`~repro.runtime.delivery.Delivery` (the communication phase),
    and one
    :class:`~repro.runtime.models.RoundModel` (the timing discipline;
    lockstep rounds unless ``model`` names another).  The network itself
    remains the adversary-arbitration and observer-dispatch surface: view
    construction, action validation, and the fixed hook sequence all live
    here, identically for every model.

    The ``transport`` axis (:mod:`repro.transport`) decides *where* the
    processes physically execute: the default in-process transport keeps
    today's zero-overhead single-interpreter core, while the TCP
    transport places them in real OS worker processes behind the same
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
        reseed_at: tuple[int, int] | None = None,
        observers: Sequence[RoundObserver] = (),
        model: RoundModel | str | None = None,
        model_options: Mapping[str, Any] | None = None,
        transport: Transport | str | None = None,
        transport_options: Mapping[str, Any] | None = None,
    ) -> None:
        from ..transport import resolve_transport

        #: The transport layer: where process execution physically lives
        #: (in this interpreter by default; real OS processes over
        #: localhost TCP with ``transport="tcp"``).
        self.transport = resolve_transport(transport, transport_options)
        self._core = self.transport.create_core(processes, seed=seed)
        n = self._core.n
        if t < 0 or t >= n:
            raise ValueError(f"fault budget t={t} must satisfy 0 <= t < n={n}")

        self.processes = self._core.processes
        self.n = n
        self.t = t
        self.seed = seed
        self.adversary = adversary if adversary is not None else Adversary()
        self.max_rounds = max_rounds
        self.metrics = self._core.metrics
        self.faulty: set[int] = set()
        self.round = 0
        # Per-round delivery totals accumulated by _deliver so the
        # report does not need a second O(copies) pass.
        self._delivered_bits = 0
        self._lost_bits = 0
        #: The engine's account of the run, first on the observer bus so
        #: user observers read up-to-date Metrics series.
        self.report = RunReport(self.metrics)
        self._observers: list[RoundObserver] = [self.report, *observers]
        #: Optional (round, seed): at the start of that round every
        #: process's random source is re-seeded from ``seed`` — the fork
        #: point used by rollout-based adversaries (future coins must be
        #: fresh, already-drawn coins must replay exactly).
        self._reseed_at = reseed_at

        self.sources = self._core.sources
        self.envs = self._core.envs
        #: The delivery layer.
        self._delivery = Delivery()
        # Alias into the core, which mutates the container in place.
        self._inboxes = self._core.inboxes

        from .models import resolve_model

        #: The scheduler layer driving :meth:`run` (see class docstring).
        self.model = resolve_model(model, model_options)

    # ------------------------------------------------------------------
    def add_observer(self, observer: RoundObserver) -> SyncNetwork:
        """Attach a :class:`RoundObserver`; returns the network (chainable).

        Attach before :meth:`run` — observers joining mid-run would see a
        partial hook sequence.
        """
        self._observers.append(observer)
        return self

    @property
    def observers(self) -> tuple[RoundObserver, ...]:
        """The attached observers (first entry is the engine's own
        :attr:`report`)."""
        return tuple(self._observers)

    # ------------------------------------------------------------------
    @property
    def core(self) -> ExecutionCore:
        """The execution layer: process advancement and metering."""
        return self._core

    def terminated_set(self) -> frozenset[int]:
        return self._core.terminated_set()

    @property
    def in_flight_messages(self) -> int:
        """Messages sent but not yet delivered, omitted, or lost.

        Always zero under the lockstep model; non-zero mid-run under
        models with cross-round latency (the conservation invariant then
        reads ``sent == delivered + omitted + lost + in_flight``).
        """
        return self.model.in_flight_count

    def maybe_reseed(self) -> None:
        """Honour a pending ``reseed_at`` fork point for the current round."""
        if self._reseed_at is not None and self.round == self._reseed_at[0]:
            self._core.reseed(self._reseed_at[1])
            self._reseed_at = None

    def _apply_adversary(self, batch: MessageBatch) -> tuple[int, ...]:
        """Communication phase: let the adversary corrupt and omit.

        Returns the validated, canonical (sorted, de-duplicated) omitted
        flat message indices; :meth:`_deliver` skips them without
        rebuilding the batch.  Observers — including the metrics
        accounting and the replay recorder — are dispatched a
        canonicalized :class:`AdversaryAction`, so duplicate indices in a
        strategy's raw action are coalesced before anything downstream
        counts or serializes them (see :func:`canonical_omissions`).
        """
        # Vectorize the batch once, with the fan-out cache, for the view's
        # index helpers, validation and delivery alike.
        self._delivery.columns(batch)
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
        for pid in sorted(new_corruptions):
            if not 0 <= pid < self.n:
                raise AdversaryProtocolError(f"cannot corrupt unknown pid {pid}")
        self.faulty |= new_corruptions

        raw_omit: Iterable[int] = action.omit
        if transport_faults:
            raw_omit = set(action.omit) | view.message_indices_touching(
                transport_faults
            )
        omit = canonical_omissions(raw_omit)
        if omit:
            # Legality is delegated to the delivery layer (it owns the
            # batch's column vectors).
            self._delivery.validate_omissions(
                batch, omit, frozenset(self.faulty)
            )
        canonical = AdversaryAction(
            corrupt=frozenset(action.corrupt) | transport_faults,
            omit=frozenset(omit),
        )
        for observer in self._observers:
            observer.on_adversary_action(self.round, view, canonical, self)
        return omit

    def _deliver(self, batch: MessageBatch, omitted: Sequence[int]) -> None:
        """One delivery step: inbox placement plus observer dispatch.

        The batch-to-inbox mechanics live in the network's
        :class:`~repro.runtime.delivery.Delivery`; this method adds
        the engine-side bookkeeping — the accumulated bit totals the
        :attr:`report` reads without a second O(copies) pass, and the
        ``on_deliveries`` hook.
        """
        receipt = self._delivery.deliver(
            batch, omitted, self._inboxes, self._core.live_mask()
        )
        self._delivered_bits = receipt.delivered_bits
        self._lost_bits = receipt.lost_bits
        for observer in self._observers:
            observer.on_deliveries(
                self.round, receipt.delivered, receipt.lost, self
            )

    def _dispatch_round_end(self) -> None:
        """Round epilogue: transport link metrics (if any), then
        ``on_round_end``.

        Round models call this once per round instead of dispatching
        ``on_round_end`` themselves, so :class:`LinkSample` measurements
        drained from a transport-backed core reach the ``on_transport``
        hook identically under every timing discipline.
        """
        samples = self._core.drain_link_samples()
        if samples:
            for observer in self._observers:
                observer.on_transport(self.round, samples, self)
        for observer in self._observers:
            observer.on_round_end(self.round, self)

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
        """Run rounds until every process terminates (or max_rounds).

        The network brackets the run (adversary setup, ``on_run_start``,
        result assembly, ``on_run_end``); the round loop itself belongs to
        the configured :class:`~repro.runtime.models.RoundModel`.
        """
        observers = self._observers
        self.adversary.setup(
            AdversaryContext(
                n=self.n,
                t=self.t,
                processes=tuple(self.processes),
                rng=random.Random(stable_seed(self.seed, "adversary-setup")),
            )
        )
        for observer in observers:
            observer.on_run_start(self)

        try:
            self.model.run_rounds(self)
            self._absorb_residual_faults()
        finally:
            # Graceful shutdown of transport resources (worker processes,
            # sockets) whether the run finished or raised mid-round; a
            # no-op for the in-process transport.
            self._core.close()

        self._core.record_randomness()
        result = self._core.build_result(frozenset(self.faulty))
        result.report = self.report
        for observer in observers:
            observer.on_run_end(result, self)
        return result
