"""Deterministic record / replay / shrink of harness executions.

The engine makes every execution a deterministic function of (protocol,
seeds, adversary action sequence); this package turns that property into
tooling:

* :func:`record` — run an :class:`~repro.harness.ExecutionConfig` while
  capturing an :class:`ExecutionRecipe` (seeds, parameters, every
  validated adversary action) plus the run's full result fingerprint;
* :func:`replay` — re-execute a recipe through the harness with a
  :class:`~repro.adversary.ScriptedAdversary` and verify byte-identical
  metrics and decisions;
* :class:`InvariantObserver` — always-on agreement / validity /
  termination / budget / metering-conservation checks that trip
  :class:`InvariantViolation` with the offending round;
* :func:`shrink_recipe` — ddmin the adversary schedule of a failing
  recipe down to a locally minimal counterexample, re-validating each
  candidate by replay;
* :func:`check_consensus_protocol` — the property battery: record every
  (input scenario, adversary, seed) cell of a registered protocol with
  invariants on; shrink, save and return the failing recipes.

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
    save_failure,
    save_recipe,
)
from .runner import (
    RECORDABLE_FAILURES,
    RecipeRecorder,
    RecordedRun,
    ReplayReport,
    SCENARIOS,
    check_consensus_protocol,
    counterexample_dir,
    record,
    replay,
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
    "SCENARIOS",
    "ShrinkResult",
    "check_consensus_protocol",
    "counterexample_dir",
    "load_recipe",
    "record",
    "recipe_from_payload",
    "recipe_payload",
    "replay",
    "save_failure",
    "save_recipe",
    "shrink_recipe",
]
