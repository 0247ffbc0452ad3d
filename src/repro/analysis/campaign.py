"""Batch experiment campaigns: cached grid sweeps that resume.

For parameter studies on one host: declare a grid over (protocol, n,
adversary, seeds) as a :class:`CampaignSpec`, run the missing cells over a
process pool, and serve every previously computed cell from a
content-addressed cache, so re-runs — across campaigns and CLI
invocations — recompute only misses.

A campaign *spec* is data, not code, and it is the single public entry
point::

    spec = CampaignSpec(
        name="scaling-study",
        protocol="algorithm1",            # any sweepable registry protocol
        ns=[64, 144, 256],
        adversaries=["none", "silence", "balance"],
        seeds=[0, 1, 2],
        options={"x": 4},                 # protocol-specific extras
    )
    records = run_campaign(spec, jobs=4, cache="~/.cache/repro-cells")
    save_campaign(records, "scaling-study.json")

Every cell is identified by a :class:`repro.fabric.CellId` — the canonical
digest of ``(protocol, n, t, adversary, seed, options, engine capability,
transport, transport_options)`` — which is the cache key and the report
grouping handle at once.

The **cache** (``cache=``, a :class:`repro.fabric.CampaignCache` or a
directory path) is the one store a finished cell is served from: each cell
is published to it atomically the moment it finishes, so an interrupted
sweep resumes by running again with the same cache, and any later campaign
touching the same cell is served from it instantly.  ``journal=`` appends
each newly computed record to a JSONL log (write-only: nothing reads it
back), and ``save_campaign`` writes the pretty JSON array of a finished
grid.

Grid cells are pure functions of the spec and their (n, adversary, seed)
coordinates — each worker reruns the cell from its seeds — so a parallel
or cached run produces records identical to a serial one, merely
finishing sooner.  ``run_campaign`` always returns records in grid order
regardless of completion order.  :func:`resolve` is the read-only half:
which cells the cache already answers, and which are left.
"""

from __future__ import annotations

import json
import multiprocessing
import operator
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..adversary import GALLERY
from ..fabric import CampaignCache, CellId, open_cache
from ..harness import (
    ExecutionConfig,
    available_protocols,
    capability_fingerprint,
    protocol_spec,
    run_config,
)
from ._journal import append_journal_record, repair_journal


def mixed_inputs(n: int) -> list[int]:
    """The hardest input assignment: a perfectly balanced split."""
    return [pid % 2 for pid in range(n)]


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a run grid."""

    name: str
    protocol: str = "algorithm1"
    ns: Sequence[int] = (64,)
    adversaries: Sequence[str] = ("none",)
    seeds: Sequence[int] = (0,)
    options: dict[str, Any] = field(default_factory=dict)
    #: Transport axis: a registered transport name, or ``None`` for the
    #: in-process default.  Part of cell identity when set.
    transport: str | None = None
    #: The transport's options (e.g.
    #: ``processes_per_worker``); part of cell identity, valid only with
    #: an explicit ``transport``.
    transport_options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A numpy ``n`` would reach the records as ``np.int64`` (not JSON).
        object.__setattr__(self, "ns", tuple(map(operator.index, self.ns)))
        sweepable = available_protocols(sweepable=True)
        if self.protocol not in sweepable:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from {sweepable}"
            )
        for axis in ("ns", "adversaries", "seeds"):
            if not len(getattr(self, axis)):
                raise ValueError(f"campaign axis {axis!r} is empty")
        unknown = set(self.adversaries) - set(GALLERY)
        if unknown:
            raise ValueError(
                f"unknown adversaries {sorted(unknown)}; choose from "
                f"{sorted(GALLERY)}"
            )
        # Every cell's config carries the same transport axis; building
        # one validates it here, before a grid reaches any worker.
        self.config_for(next(iter(self.ns)), 0)

    def grid(self):
        """Yield every (n, adversary, seed) cell."""
        for n in self.ns:
            for adversary in self.adversaries:
                for seed in self.seeds:
                    yield n, adversary, seed

    def config_for(self, n: int, seed: int) -> ExecutionConfig:
        """The run description of the grid's ``(n, seed)`` cells (``t`` is
        left to the protocol; see :class:`CellId`)."""
        return ExecutionConfig(
            self.protocol,
            mixed_inputs(n),
            seed=seed,
            options=self.options,
            transport=self.transport,
            transport_options=self.transport_options,
        )

    def cell_id(self, n: int, adversary: str, seed: int) -> CellId:
        """Canonical identity of one cell (equals ``CellId.from_record``
        of the record the cell produces)."""
        config = self.config_for(n, seed)
        t = protocol_spec(self.protocol).campaign_t(n, config.params)
        return CellId.of(config, adversary=adversary, t=t)


def _run_cell(
    spec: CampaignSpec,
    n: int,
    adversary_name: str,
    seed: int,
    record_failures: str | None = None,
) -> dict[str, Any]:
    """Execute one cell; returns its record."""
    protocol = protocol_spec(spec.protocol)
    config = spec.config_for(n, seed)
    t = protocol.campaign_t(n, config.params)
    adversary = GALLERY[adversary_name](n, t, config.seed)

    record: dict[str, Any] = {
        "campaign": spec.name,
        "protocol": config.protocol,
        "n": n,
        "t": t,
        "adversary": adversary_name,
        "seed": config.seed,
        "options": dict(config.options),
        "engine": capability_fingerprint(),
    }
    # Only transport-pinned sweeps carry the keys, so records written by
    # unpinned specs keep their exact cell identity.
    if config.transport is not None:
        record["transport"] = config.transport
        if config.transport_options:
            record["transport_options"] = dict(config.transport_options)

    if record_failures is not None:
        from .. import replay

        recorded = replay.record(
            config,
            adversary,
            note=f"campaign {spec.name}: n={n} adversary={adversary_name} seed={config.seed}",
        )
        if recorded.failed:
            path = replay.save_failure(
                recorded.recipe, record_failures,
                f"{spec.protocol}-n{n}-{adversary_name}-seed{config.seed}",
            )
            record.update(
                failed=True,
                invariant=recorded.recipe.expected_failure["invariant"],
                error=str(recorded.failure),
                recipe=str(path),
            )
            return record
        run = recorded.run
    else:
        run = run_config(config, adversary, spec=protocol)

    metrics = run.metrics
    record.update(
        decision=run.decision,
        rounds=run.result.time_to_agreement(),
        messages=metrics.messages_sent,
        bits=metrics.bits_sent,
        random_bits=metrics.random_bits,
        random_calls=metrics.random_calls,
        faulty=sorted(run.result.faulty),
        fallback=run.ran_deterministic_fallback,
    )
    if protocol.record_extras is not None:
        record.update(protocol.record_extras(run, run.request))
    return record


#: Grid coordinates of one cell: ``(n, adversary, seed)``.
Coords = tuple[int, str, int]


def resolve(
    spec: CampaignSpec, *, cache: CampaignCache | str | Path | None = None
) -> tuple[dict[Coords, dict[str, Any]], list[tuple[Coords, CellId]]]:
    """Answer every grid cell the cache holds; read-only.

    Returns ``(results, pending)``: ``results`` maps a cell's coordinates
    to the record the :class:`repro.fabric.CampaignCache` (an instance or a
    directory path) serves for it, stamped with ``spec.name`` — the cache
    is shared across campaigns; ``pending`` lists, in grid order, the
    ``(coordinates, CellId)`` of the cells it could not answer.
    """
    store = open_cache(cache)
    results: dict[Coords, dict[str, Any]] = {}
    pending: list[tuple[Coords, CellId]] = []
    for coords in spec.grid():
        cell = spec.cell_id(*coords)
        cached = store.get(cell) if store is not None else None
        if cached is not None:
            results[coords] = {**cached, "campaign": spec.name}
        else:
            pending.append((coords, cell))
    return results, pending


def run_campaign(
    spec: CampaignSpec,
    *,
    jobs: int = 1,
    journal: str | Path | None = None,
    on_record: Callable[[dict[str, Any]], None] | None = None,
    record_failures: str | Path | None = None,
    cache: CampaignCache | str | Path | None = None,
) -> list[dict[str, Any]]:
    """Run every grid cell, serving already-known cells without executing.

    A cell is identified by its :class:`CellId` digest over (protocol, n,
    t, adversary, seed, options, engine capability, transport,
    transport_options).  Cells are satisfied, in order, from:

    1. ``cache`` — a content-addressed :class:`repro.fabric.CampaignCache`
       (or a directory path for one) consulted per cell by
       :func:`resolve` and fed every newly computed record the moment it
       finishes, so identical cells are never recomputed across campaigns
       or CLI invocations, and an interrupted sweep resumes by running
       again with the same cache;
    2. execution.  With ``jobs > 1`` the missing cells go to one process
       pool, largest ``n`` first: each idle worker takes the heaviest
       remaining cell, so one large-``n`` cell cannot idle the pool.
       Every cell is a pure function of the spec and its seeds, so the
       records are identical to a serial run (the returned list is always
       in grid order).  A cell that raises re-raises here with the
       worker's traceback attached and the cells still queued are
       cancelled; a worker that dies raises ``BrokenProcessPool``.  Either
       way the cells already finished are in the cache.

    ``journal`` names an append-only JSONL log that receives each newly
    computed record the moment it finishes (cache-served records are not
    re-appended); nothing reads it back.  ``on_record``
    is called with each newly computed record, in completion order.

    ``record_failures`` names a directory: each cell then runs through the
    ``repro.replay`` recorder with invariants on, and a violating cell does
    not abort the sweep — its :class:`~repro.replay.ExecutionRecipe` is
    saved under the directory, and the cell's record carries
    ``failed: true`` plus the recipe path
    (``summarize_campaign`` skips such records).
    """
    if not isinstance(spec, CampaignSpec):
        raise TypeError(
            "run_campaign takes a CampaignSpec as its single positional "
            f"argument, got {type(spec).__name__!r}; the loose grid-keyword "
            "spelling was removed (see docs/api.md)"
        )
    store = open_cache(cache)
    results, pending = resolve(spec, cache=store)
    journal_path = Path(journal) if journal is not None else None

    def finish(coords: Coords, cell: CellId, record: dict[str, Any]) -> None:
        results[coords] = record
        if journal_path is not None:
            append_journal_record(journal_path, record)
        if store is not None:
            store.put(cell, record)
        if on_record is not None:
            on_record(record)

    failures_dir = (
        str(record_failures) if record_failures is not None else None
    )
    if jobs <= 1 or len(pending) <= 1:
        for coords, cell in pending:
            finish(coords, cell, _run_cell(spec, *coords, failures_dir))
    else:
        # One shared queue handed out heaviest-first is greedy LPT: message
        # volume (~n²) dominates a cell's cost, and whichever worker goes
        # idle takes the largest cell left.  ``fork`` is cheap and inherits
        # sys.path; the workers exist before the pool starts its thread.
        methods = multiprocessing.get_all_start_methods()
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            mp_context=multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            ),
        )
        try:
            futures = {}
            for coords, cell in sorted(pending, key=lambda item: -item[0][0]):
                future = pool.submit(_run_cell, spec, *coords, failures_dir)
                futures[future] = (coords, cell)
            for future in as_completed(futures):
                finish(*futures[future], future.result())
        finally:
            pool.shutdown(cancel_futures=True)

    return [results[coords] for coords in spec.grid()]


def save_campaign(
    records: Sequence[dict[str, Any]], path: str | Path
) -> None:
    """Persist campaign records as a JSON array."""
    Path(path).write_text(
        json.dumps(list(records), indent=2, sort_keys=True), encoding="utf-8"
    )


def summarize_campaign(
    records: Sequence[dict[str, Any]]
) -> list[dict[str, Any]]:
    """Aggregate records per (protocol, n, adversary): means over seeds."""
    buckets: dict[tuple[str, int, str], list[dict[str, Any]]] = {}
    for record in records:
        if record.get("failed"):
            # Invariant-violating cells (record_failures mode) have no
            # metrics to aggregate; their recipes are on disk instead.
            continue
        cell = CellId.from_record(record)
        if cell is None:
            continue
        buckets.setdefault(cell.series_key(), []).append(record)
    summary = []
    for (protocol, n, adversary), group in sorted(buckets.items()):
        count = len(group)
        summary.append(
            {
                "protocol": protocol,
                "n": n,
                "adversary": adversary,
                "runs": count,
                "mean_rounds": sum(r["rounds"] for r in group) / count,
                "mean_bits": sum(r["bits"] for r in group) / count,
                "mean_random_bits": sum(r["random_bits"] for r in group)
                / count,
                "fallback_rate": sum(r["fallback"] for r in group) / count,
                "decisions": sorted({r["decision"] for r in group}),
            }
        )
    return summary
