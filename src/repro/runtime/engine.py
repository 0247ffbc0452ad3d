"""ExecutionCore: the engine-neutral execution layer.

Everything about driving a set of :class:`SyncProcess` generators that
does *not* depend on the timing model lives here: process-coroutine
advancement (the paper's local-computation phase), inbox bookkeeping,
decision tracking, termination queries, the per-process counted random
sources, and the final :class:`ExecutionResult` assembly.  Round models
(:mod:`repro.runtime.models`) decide *when* to call these operations and
with which inbox contents; the delivery layer
(:mod:`repro.runtime.delivery`) decides *how* surviving traffic becomes
inbox contents.  :class:`~repro.runtime.network.SyncNetwork` wires the
three layers together and remains the adversary-arbitration and
observer-dispatch surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from .messages import Message, MessageBatch, MessageRecord
from .metrics import Metrics
from .observers import LinkSample
from .process import ProcessEnv, Program, SyncProcess
from .randomness import CountingRandom, derive_seeds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from .report import RunReport


@dataclass
class ExecutionResult:
    """Outcome of one engine execution (:meth:`SyncNetwork.run`)."""

    n: int
    decisions: dict[int, Any]
    metrics: Metrics
    faulty: frozenset[int]
    all_terminated: bool
    rounds: int
    #: Per-process random-source statistics (calls, bits).
    randomness_per_process: list[tuple[int, int]] = field(default_factory=list)
    #: Round in which each process first decided (absent = never decided).
    decision_rounds: dict[int, int] = field(default_factory=dict)
    #: The engine's account of the run (``None`` for a result read back
    #: from JSON); never part of equality or of :func:`result_to_dict`.
    report: RunReport | None = field(default=None, compare=False, repr=False)

    def time_to_agreement(self) -> int:
        """The paper's *time* metric: rounds until the last **non-faulty**
        process has decided (Section 2).  Faulty stragglers — e.g. fully
        eclipsed processes waiting out their timeout — do not count.

        Raises ``AssertionError`` if some non-faulty process never decided.
        """
        latest = -1
        for pid in range(self.n):
            if pid in self.faulty:
                continue
            round_no = self.decision_rounds.get(pid)
            if round_no is None:
                raise AssertionError(
                    f"non-faulty process {pid} never decided"
                )
            latest = max(latest, round_no)
        if latest < 0:
            raise AssertionError("no non-faulty process decided")
        return latest + 1

    def non_faulty_decisions(self) -> dict[int, Any]:
        """Decisions of processes the adversary never corrupted."""
        return {
            pid: value
            for pid, value in self.decisions.items()
            if pid not in self.faulty
        }

    def agreement_value(self) -> Any:
        """The unique decision of non-faulty processes.

        Raises ``AssertionError`` if agreement is violated or some non-faulty
        process never decided — the core correctness check used by tests.
        """
        values = self.non_faulty_decisions()
        undecided = [
            pid
            for pid in range(self.n)
            if pid not in self.faulty and pid not in values
        ]
        if undecided:
            raise AssertionError(
                f"termination violated: non-faulty processes {undecided} "
                "never decided"
            )
        distinct = set(values.values())
        if len(distinct) != 1:
            raise AssertionError(
                f"agreement violated: non-faulty decisions {values}"
            )
        return distinct.pop()


class ExecutionCore:
    """Process advancement, decision tracking, termination, and metering.

    One core drives one execution.  It owns the process list, the
    deterministically derived :class:`CountingRandom` sources, the
    per-process :class:`ProcessEnv` objects, the generator programs, and
    the inbox slots the delivery layer writes into.  It knows nothing about
    rounds-as-time: the round number is handed in by the model on every
    :meth:`advance`.
    """

    __slots__ = (
        "processes",
        "n",
        "seed",
        "metrics",
        "sources",
        "envs",
        "programs",
        "inboxes",
    )

    def __init__(
        self,
        processes: Sequence[SyncProcess],
        seed: int = 0,
        metrics: Metrics | None = None,
    ) -> None:
        if not processes:
            raise ValueError("need at least one process")
        n = len(processes)
        for index, process in enumerate(processes):
            if process.pid != index:
                raise ValueError(
                    f"process at position {index} has pid {process.pid}; "
                    "pids must equal list positions"
                )
            if process.n != n:
                raise ValueError(
                    f"process {process.pid} was built for n={process.n}, "
                    f"but the network has n={n}"
                )
        self.processes = list(processes)
        self.n = n
        self.seed = seed
        self.metrics = metrics if metrics is not None else Metrics()
        seeds = derive_seeds(seed, n, salt="process-randomness")
        self.sources = [CountingRandom(s) for s in seeds]
        self.envs = [
            ProcessEnv(pid, n, self.sources[pid]) for pid in range(n)
        ]
        self.programs: list[Program | None] = [
            process.program(self.envs[process.pid])
            for process in self.processes
        ]
        self.inboxes: list[Sequence[Message]] = [[] for _ in range(n)]

    # ------------------------------------------------------------------
    @property
    def live_count(self) -> int:
        """Number of processes whose programs have not returned yet."""
        return sum(1 for program in self.programs if program is not None)

    def terminated_set(self) -> frozenset[int]:
        return frozenset(
            pid for pid, program in enumerate(self.programs) if program is None
        )

    def live_mask(self) -> list[bool] | None:
        """Per-pid liveness for the delivery layer; ``None`` = all live."""
        if self.live_count == self.n:
            return None
        return [program is not None for program in self.programs]

    def current_decisions(self) -> dict[int, Any]:
        return {
            env.pid: env.decision for env in self.envs if env.has_decided
        }

    # ------------------------------------------------------------------
    def advance(self, round_no: int) -> MessageBatch:
        """Run one local-computation phase; collect the outbound batch.

        Every live program is resumed (in pid order) with the inbox its
        slot currently holds; the slot is reset so the next delivery step
        starts from empty.
        """
        records: list[MessageRecord] = []
        for pid, program in enumerate(self.programs):
            if program is None:
                continue
            env = self.envs[pid]
            env.round = round_no
            env.outbox = []
            inbox = self.inboxes[pid]
            self.inboxes[pid] = []
            try:
                if round_no == 0:
                    next(program)
                else:
                    program.send(inbox)
            except StopIteration:
                self.programs[pid] = None
            # Messages queued before a final ``return`` are still sent: the
            # process completed its local computation phase this round.
            records.extend(env.outbox)
        return MessageBatch(records)

    def reseed(self, fork_seed: int) -> None:
        """Re-seed every process's random source from ``fork_seed`` — the
        fork point used by rollout-based adversaries (future coins must be
        fresh, already-drawn coins must replay exactly)."""
        fork_seeds = derive_seeds(fork_seed, self.n, salt="fork")
        for source, per_process_seed in zip(self.sources, fork_seeds):
            source.reseed(per_process_seed)

    # ------------------------------------------------------------------
    # Transport surface.  The base core is fully in-process: it owns no
    # external resources, detects no crash faults, and measures no links.
    # Transport-backed cores (``repro.transport``) override all three.
    def close(self) -> None:
        """Release transport resources (idempotent; no-op in-process)."""

    def drain_faults(self) -> frozenset[int]:
        """Process ids newly crash-faulted by the transport since the
        last drain.  :meth:`SyncNetwork._apply_adversary` folds them into
        the round's corruptions and omits their in-flight copies, so a
        dead worker lands inside the paper's omission-fault model instead
        of hanging the run."""
        return frozenset()

    def drain_link_samples(self) -> tuple[LinkSample, ...]:
        """Per-link transport measurements since the last drain (consumed
        by ``SyncNetwork._dispatch_round_end`` for the ``on_transport``
        observer hook)."""
        return ()

    # ------------------------------------------------------------------
    def record_randomness(self) -> None:
        """Fold the sources' totals into :class:`Metrics` (run end)."""
        self.metrics.record_randomness(
            sum(source.calls for source in self.sources),
            sum(source.bits_drawn for source in self.sources),
        )

    def build_result(self, faulty: frozenset[int]) -> ExecutionResult:
        """Assemble the :class:`ExecutionResult` for a finished run."""
        return ExecutionResult(
            n=self.n,
            decisions=self.current_decisions(),
            metrics=self.metrics,
            faulty=faulty,
            all_terminated=all(env.has_decided for env in self.envs),
            rounds=self.metrics.rounds,
            randomness_per_process=[
                (source.calls, source.bits_drawn) for source in self.sources
            ],
            decision_rounds={
                env.pid: env.decision_round
                for env in self.envs
                if env.decision_round is not None
            },
        )
