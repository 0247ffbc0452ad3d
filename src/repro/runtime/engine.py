"""ExecutionCore: the engine-neutral execution layer.

Everything about driving a set of :class:`SyncProcess` generators lives
here: process-coroutine advancement (the paper's local-computation
phase), inbox bookkeeping, decision tracking, termination queries, the
per-process counted random sources, and the final
:class:`ExecutionResult` assembly.  The round loop in
:meth:`SyncNetwork.run <repro.runtime.network.SyncNetwork.run>` decides
*when* to call these operations; the delivery layer
(:mod:`repro.runtime.delivery`) decides *how* surviving traffic becomes
inbox contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any

from .messages import Message, SendColumns
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
    #: The engine's account of the run, attached by ``SyncNetwork.run``;
    #: never part of equality or of :func:`result_to_dict`.
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
    rounds-as-time: the round number is handed in by the round loop on
    every :meth:`advance`.
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
        "live_count",
        "_terminated",
        "_live",
    )

    def __init__(
        self,
        processes: Sequence[SyncProcess],
        seed: int = 0,
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
        self.metrics = Metrics()
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
        #: Programs not returned yet; :meth:`terminate` keeps it.
        self.live_count = n
        self._terminated: frozenset[int] = frozenset()
        self._live = [True] * n

    # ------------------------------------------------------------------
    def terminate(self, pid: int) -> None:
        """Mark ``pid``'s program finished (the one place liveness moves)."""
        self.programs[pid] = None
        self.live_count -= 1
        self._terminated |= {pid}
        self._live[pid] = False

    def terminated_set(self) -> frozenset[int]:
        return self._terminated

    def live_mask(self) -> list[bool] | None:
        """Per-pid liveness for the delivery layer; ``None`` = all live."""
        return None if self.live_count == self.n else self._live

    def current_decisions(self) -> dict[int, Any]:
        return {
            env.pid: env.decision for env in self.envs if env.has_decided
        }

    # ------------------------------------------------------------------
    def advance(self, round_no: int, pids: Iterable[int] | None = None) -> SendColumns:
        """Run one local-computation phase; collect the round's sends.

        Every live program among *pids* (all of them by default) is
        resumed, in the order given, with the inbox its slot holds (the
        slot is reset).  Every env of the round appends to the same four
        :data:`~repro.runtime.messages.SendColumns` lists, in pid order,
        sends queued before a final ``return`` included; the round loop
        makes them the round's one ``MessageBatch``, a TCP worker ships
        them.
        """
        columns: SendColumns = ([], [], [], [])
        programs, envs, inboxes = self.programs, self.envs, self.inboxes
        for pid in range(self.n) if pids is None else pids:
            program = programs[pid]
            if program is None:
                continue
            env = envs[pid]
            env.round = round_no
            env.columns = columns
            inbox = inboxes[pid]
            inboxes[pid] = []
            try:
                if round_no == 0:
                    next(program)
                else:
                    program.send(inbox)
            except StopIteration:
                self.terminate(pid)
        return columns

    # ------------------------------------------------------------------
    # Transport surface.  The base core is fully in-process: it owns no
    # external resources, detects no crash faults, and measures no links.
    # Transport-backed cores (``repro.transport``) override all three.
    def close(self) -> None:
        """Release transport resources (idempotent; no-op in-process)."""

    def drain_faults(self) -> frozenset[int]:
        """Process ids newly crash-faulted by the transport since the
        last drain.  :meth:`SyncNetwork._apply_adversary` folds them into
        the round's corruptions and omits their copies, so a
        dead worker lands inside the paper's omission-fault model instead
        of hanging the run."""
        return frozenset()

    def drain_link_samples(self) -> tuple[LinkSample, ...]:
        """Per-link transport measurements since the last drain (consumed
        by ``SyncNetwork.run`` for the ``on_transport`` observer hook)."""
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
