"""Record and replay harness executions.

:func:`record` runs a protocol through the harness with a
:class:`RecipeRecorder` tapped into the observer bus, capturing every
validated adversary action into an :class:`ExecutionRecipe` along with the
run's full result fingerprint — or, when an invariant trips, the failure
description.  :func:`replay` reconstructs the run from the recipe alone
(a :class:`~repro.adversary.ScriptedAdversary` stands in for the original
strategy) and verifies the outcome byte-for-byte against the recorded
fingerprint.

Because executions are deterministic functions of (seed, adversary action
sequence), a replayed run reproduces every :class:`Metrics` counter and
every decision exactly: omission indices address the round's flat
per-copy message order, which the recipe's seed fixes.

:func:`check_consensus_protocol` is the property battery: one
:func:`record` per (input scenario, adversary, seed) cell with invariants
on; a failing cell is shrunk (``repro.replay.shrink``) and saved.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from ..adversary import GALLERY
from ..adversary.scripted import ScriptedAdversary
from ..harness import ExecutionConfig, protocol_spec, run_config
from ..runtime import (
    Adversary,
    AdversaryProtocolError,
    LockstepError,
    RoundObserver,
    canonical_omissions,
    result_to_dict,
)
from .invariants import InvariantObserver, InvariantViolation
from .recipe import ExecutionRecipe, RecordedAction, save_failure

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.consensus import ConsensusRun
    from ..runtime import AdversaryAction, NetworkView, SyncNetwork

#: Exceptions that turn a recording into a *failing* recipe instead of
#: propagating: invariant trips, protocol assertions, engine errors.
RECORDABLE_FAILURES = (AssertionError, LockstepError, AdversaryProtocolError)


class RecipeRecorder(RoundObserver):
    """Capture the validated adversary schedule as :class:`RecordedAction`s.

    Taps ``on_adversary_action``, which the engine fires *after* validating
    and applying the action — so the recording is exactly the schedule the
    run experienced, and replaying it strictly can never be illegal on the
    identical execution.  Empty actions are not recorded.
    """

    def __init__(self) -> None:
        self.actions: list[RecordedAction] = []

    def on_adversary_action(
        self,
        round_no: int,
        view: NetworkView,
        action: AdversaryAction,
        network: SyncNetwork,
    ) -> None:
        newly = sorted(frozenset(action.corrupt) - view.faulty)
        # The engine dispatches canonical actions; normalize again anyway
        # so hand-driven dispatch records the same schedule it would apply.
        omit = canonical_omissions(action.omit)
        if newly or omit:
            self.actions.append(
                RecordedAction(
                    round=round_no,
                    corrupt=tuple(newly),
                    omit=omit,
                )
            )


@dataclass
class RecordedRun:
    """Outcome of :func:`record`: the recipe plus the live run (if any)."""

    recipe: ExecutionRecipe
    run: ConsensusRun | None = None
    failure: BaseException | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None


def _canonical(payload: Mapping[str, Any]) -> dict[str, Any]:
    """JSON-normalize a payload (tuples -> lists, int keys -> str)."""
    normalized: dict[str, Any] = json.loads(json.dumps(payload, sort_keys=True))
    return normalized


def _failure_payload(failure: BaseException) -> dict[str, Any]:
    if isinstance(failure, InvariantViolation):
        return failure.payload()
    return {
        "invariant": type(failure).__name__,
        "round": None,
        "detail": str(failure),
    }


def record(
    config: ExecutionConfig,
    adversary: Adversary | None = None,
    observers: Sequence[RoundObserver] = (),
    *,
    invariants: bool = True,
    note: str = "",
) -> RecordedRun:
    """Run *config* while capturing its :class:`ExecutionRecipe`.

    With ``invariants=True`` (the default) an :class:`InvariantObserver`
    rides along; a violation (or any :data:`RECORDABLE_FAILURES` error)
    does not propagate — it is folded into the recipe's
    ``expected_failure`` so the failing schedule can be replayed and
    shrunk.  A clean run stores the full result fingerprint in
    ``expected``.

    A transport the config leaves at ``None`` is pinned to the default's
    name, so the recipe says what ran.  The transport is *provenance* —
    :func:`replay` always re-executes in-process, so a run recorded over
    real TCP worker processes verifies against the same fingerprint in a
    single interpreter (the cross-transport equivalence check).
    """
    if not isinstance(config, ExecutionConfig):
        raise TypeError(
            f"record takes an ExecutionConfig, got {type(config).__name__!r}; the "
            "record(protocol, inputs, **keywords) spelling was removed (see docs/api.md)"
        )
    config = dataclasses.replace(
        config, transport=config.transport or "inprocess"
    )
    recorder = RecipeRecorder()
    attached: list[RoundObserver] = [recorder]
    if invariants:
        attached.append(InvariantObserver(inputs=config.inputs))
    attached.extend(observers)

    run: ConsensusRun | None = None
    failure: BaseException | None = None
    try:
        run = run_config(config, adversary, attached)
    except RECORDABLE_FAILURES as exc:
        failure = exc

    recipe = ExecutionRecipe(
        config=config,
        actions=tuple(recorder.actions),
        expected=(
            _canonical(result_to_dict(run.result)) if run is not None else None
        ),
        expected_failure=(
            _failure_payload(failure) if failure is not None else None
        ),
        note=note,
    )
    return RecordedRun(recipe=recipe, run=run, failure=failure)


@dataclass
class ReplayReport:
    """Outcome of :func:`replay`, with the verification verdict."""

    recipe: ExecutionRecipe
    run: ConsensusRun | None = None
    failure: BaseException | None = None
    mismatches: list[str] = field(default_factory=list)

    @property
    def matches(self) -> bool:
        """The replay completed and its fingerprint equals ``expected``."""
        return (
            self.failure is None
            and self.recipe.expected is not None
            and not self.mismatches
        )

    @property
    def reproduced_failure(self) -> bool:
        """The replay tripped the same invariant the recipe recorded."""
        if self.failure is None or self.recipe.expected_failure is None:
            return False
        want = self.recipe.expected_failure.get("invariant")
        got = getattr(
            self.failure, "invariant", type(self.failure).__name__
        )
        return want is None or want == got

    @property
    def ok(self) -> bool:
        """The replay agreed with whatever the recipe promised."""
        if self.recipe.failing:
            return self.reproduced_failure
        if self.recipe.expected is not None:
            return self.matches
        return self.failure is None

    def summary(self) -> str:
        if self.recipe.failing:
            if self.reproduced_failure:
                return (
                    "reproduced recorded failure: "
                    f"{self.recipe.expected_failure}"
                )
            if self.failure is not None:
                return f"different failure on replay: {self.failure}"
            return "recorded failure did NOT reproduce"
        if self.matches:
            return "replay matches recorded fingerprint"
        if self.failure is not None:
            return f"replay failed: {self.failure}"
        if self.mismatches:
            return "fingerprint mismatches: " + "; ".join(self.mismatches)
        return "replay completed (no recorded fingerprint to compare)"


def _diff_payload(
    expected: Mapping[str, Any], actual: Mapping[str, Any], prefix: str = ""
) -> list[str]:
    mismatches: list[str] = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if want == got:
            continue
        if isinstance(want, dict) and isinstance(got, dict):
            mismatches.extend(_diff_payload(want, got, f"{prefix}{key}."))
        else:
            mismatches.append(f"{prefix}{key}: expected {want!r}, got {got!r}")
    return mismatches


def replay(
    recipe: ExecutionRecipe,
    *,
    strict: bool | None = None,
    invariants: bool = True,
    observers: Sequence[RoundObserver] = (),
) -> ReplayReport:
    """Re-execute a recipe and verify it against its recorded outcome.

    ``strict`` controls the :class:`ScriptedAdversary` mode; the default is
    strict for passing recipes (the schedule must be legal verbatim) and
    lenient for failing ones (shrunk schedules may carry omissions whose
    sender was un-corrupted by the shrinker).

    Replay always runs in-process, whatever transport the recipe records:
    the recorded schedule (transport crash faults included — the engine
    arbitrated them into ordinary corruptions and omissions) is a
    deterministic function of (seed, actions), so a TCP-recorded recipe
    verifies byte-for-byte in a single interpreter.
    """
    if strict is None:
        strict = not recipe.failing
    scripted = ScriptedAdversary(recipe.actions, strict=strict)
    # The recorded transport is never a replay input.
    config = dataclasses.replace(
        recipe.config, transport=None, transport_options=None
    )
    attached: list[RoundObserver] = []
    if invariants:
        attached.append(InvariantObserver(inputs=config.inputs))
    attached.extend(observers)

    report = ReplayReport(recipe=recipe)
    try:
        report.run = run_config(config, scripted, attached)
    except RECORDABLE_FAILURES as exc:
        report.failure = exc
        return report

    if recipe.expected is not None and report.run is not None:
        actual = _canonical(result_to_dict(report.run.result))
        report.mismatches = _diff_payload(dict(recipe.expected), actual)
    return report


def counterexample_dir() -> Path:
    """Where :func:`check_consensus_protocol` saves shrunk recipes
    (``$REPRO_COUNTEREXAMPLE_DIR``, default ``./counterexamples``)."""
    return Path(os.environ.get("REPRO_COUNTEREXAMPLE_DIR", "counterexamples"))


#: The battery's input vectors, by scenario name: ``rule(pid, n)``.
SCENARIOS: dict[str, Callable[[int, int], int]] = {
    "all-zero": lambda pid, n: 0,
    "all-one": lambda pid, n: 1,
    "balanced": lambda pid, n: pid % 2,
    "skewed": lambda pid, n: int(pid < (3 * n) // 4),
}


def check_consensus_protocol(
    config: ExecutionConfig,
    adversaries: Mapping[str, Callable[[int, int, int], Adversary | None]] = GALLERY,
    seeds: Sequence[int] = (0, 1),
    save_dir: str | Path | None = None,
) -> list[ExecutionRecipe]:
    """Check a registered protocol for agreement, validity and termination.

    *config* names the protocol with its ``n``, ``t`` and options.  Each
    cell sets its ``inputs`` (per :data:`SCENARIOS`; input-free protocols
    run one ``n``-only cell) and ``seed`` and is one :func:`record` with
    invariants on, under ``adversaries[name](n, t, seed)`` (``t`` unset:
    the campaign budget).  A failing cell is shrunk (kept as recorded if
    it cannot be), saved under *save_dir* (default
    :func:`counterexample_dir`) and returned; ``[]`` means the protocol
    conforms.  Errors outside :data:`RECORDABLE_FAILURES` propagate.
    """
    from .shrink import shrink_recipe

    spec = protocol_spec(config.protocol)
    n, params = config.n, config.params
    assert n is not None and params is not None  # the config derives both
    t = config.t if config.t is not None else spec.campaign_t(n, params)
    scenarios: dict[str, tuple[int, ...] | None] = {"n-only": None}
    if spec.uses_inputs:
        scenarios = {
            scenario: tuple(rule(pid, n) for pid in range(n))
            for scenario, rule in SCENARIOS.items()
        }
    failing: list[ExecutionRecipe] = []
    for scenario, inputs in scenarios.items():
        for name, build in adversaries.items():
            for seed in seeds:
                cell = dataclasses.replace(config, inputs=inputs, seed=seed)
                recorded = record(
                    cell, build(n, t, seed),
                    note=f"battery: {scenario} adversary={name} seed={seed}",
                )
                if not recorded.failed:
                    continue
                recipe = recorded.recipe
                with contextlib.suppress(ValueError):
                    recipe = shrink_recipe(recipe).recipe
                save_failure(
                    recipe,
                    save_dir if save_dir is not None else counterexample_dir(),
                    f"{config.protocol}-{scenario}-{name}-seed{seed}",
                )
                failing.append(recipe)
    return failing
