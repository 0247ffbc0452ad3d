"""Deterministic record / replay / shrink of harness executions.

The engine makes every execution a deterministic function of (protocol,
seeds, adversary action sequence); this package turns that property into
tooling:

* :func:`record` — run any registered protocol while capturing an
  :class:`ExecutionRecipe` (seeds, parameters, every validated adversary
  action) plus the run's full result fingerprint;
* :func:`replay` — re-execute a recipe through the harness with a
  :class:`~repro.adversary.ScriptedAdversary` and verify byte-identical
  metrics and decisions;
* :class:`InvariantObserver` — always-on agreement / validity /
  termination / budget / metering-conservation checks that trip
  :class:`InvariantViolation` with the offending round;
* :func:`shrink_recipe` — ddmin the adversary schedule of a failing
  recipe down to a locally minimal counterexample, re-validating each
  candidate by replay;
* :func:`run_checked` — the fuzzing entry point: record with invariants
  on, and on violation shrink + save the recipe before re-raising.

Recipes serialize through :func:`save_recipe` / :func:`load_recipe`
(schema-tagged JSON, same versioning as ``repro.runtime.serialization``).
"""

from .invariants import InvariantObserver, InvariantViolation
from .recipe import (
    ExecutionRecipe,
    RecordedAction,
    load_recipe,
    recipe_from_payload,
    recipe_payload,
    save_recipe,
)
from .runner import (
    RECORDABLE_FAILURES,
    RecipeRecorder,
    RecordedRun,
    ReplayReport,
    counterexample_dir,
    record,
    record_config,
    replay,
    run_checked,
)
from .shrink import ShrinkResult, shrink_recipe

__all__ = [
    "ExecutionRecipe",
    "RecordedAction",
    "InvariantObserver",
    "InvariantViolation",
    "RECORDABLE_FAILURES",
    "RecipeRecorder",
    "RecordedRun",
    "ReplayReport",
    "ShrinkResult",
    "counterexample_dir",
    "load_recipe",
    "record",
    "record_config",
    "recipe_from_payload",
    "recipe_payload",
    "replay",
    "run_checked",
    "save_recipe",
    "shrink_recipe",
]
