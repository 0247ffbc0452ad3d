"""Removed surfaces fail loudly at call time.

Lint rule REP004 used to flag these statically; it is retired because
nothing is left for it to catch that the first call does not.  The loose
``run_campaign(ns=...)`` keywords and ``CampaignSpec.cell_key`` are pinned
the same way by ``test_campaign.TestRemovedGridKwargs``.  REP008 (one engine
front door) is retired into the call-site census at the end of this file.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.analysis.campaign import CampaignSpec, run_campaign
from repro.baselines import run_ben_or
from repro.harness import execute
from repro.runtime import Adversary, MessageBatch, NetworkView, SyncNetwork

INPUTS = [0, 1, 1, 0, 1]
SPEC = CampaignSpec("removed", "ben-or", ns=(5,))


class ThreeArgumentSetup(Adversary):
    def setup(self, n, t, processes):  # the pre-AdversaryContext signature
        pass


def unpack(run):
    result, processes = run
    return result, processes


REMOVED_CALLS = {
    "SyncNetwork(on_round=)": (
        TypeError, lambda: SyncNetwork([], on_round=lambda *args: None)
    ),
    "run[0]": (TypeError, lambda: run_ben_or(INPUTS)[0]),
    "result, processes = run": (TypeError, lambda: unpack(run_ben_or(INPUTS))),
    "Adversary.setup(n, t, processes)": (
        TypeError,
        lambda: execute("ben-or", INPUTS, adversary=ThreeArgumentSetup()),
    ),
    "run_campaign(spec, resume_from=)": (
        TypeError, lambda: run_campaign(SPEC, resume_from=[])
    ),
    "run_campaign(spec, records)": (
        TypeError, lambda: run_campaign(SPEC, [])
    ),
    "run_campaign(spec, claims=)": (
        TypeError, lambda: run_campaign(SPEC, claims=None)
    ),
    "MessageBatch.indices_by_sender()": (
        AttributeError, lambda: MessageBatch([]).indices_by_sender()
    ),
    "NetworkView(round_no=)": (
        TypeError,
        lambda: NetworkView(
            round_no=0, processes=(), messages=(), faulty=frozenset(),
            budget_left=0, decisions={}, terminated=frozenset(),
        ),
    ),
}


@pytest.mark.parametrize("surface", sorted(REMOVED_CALLS))
def test_removed_call_shape_raises(surface):
    error, call = REMOVED_CALLS[surface]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "module,name",
    [
        ("repro.harness", "ExecutionRequest"),
        ("repro.analysis", "record_cell_key"),
        ("repro.analysis.campaign", "record_cell_key"),
        ("repro.transport", "default_transport_name"),
        ("repro.cli", "ADVERSARIES"),
        # One sweep driver, one gallery: `measure` + `repro.adversary.GALLERY`.
        ("repro.analysis", "measure_consensus_scaling"),
        ("repro.analysis", "measure_tradeoff_scaling"),
        ("repro.analysis", "measure_dolev_strong"),
        ("repro.analysis", "measure_phase_king"),
        ("repro.analysis", "measure_ben_or"),
        ("repro.analysis.experiments", "balancing_adversary"),
        ("repro.core", "sweep_tradeoff"),
        ("repro.core", "TradeoffPoint"),
        ("repro.analysis.campaign", "ADVERSARY_FACTORIES"),
        ("repro.analysis.conformance", "DEFAULT_GALLERY"),
        ("repro.runtime", "recipe_to_dict"),
        ("repro.runtime", "recipe_from_dict"),
        ("repro.lowerbound", "ScriptedAdversary"),
        ("repro.lint", "Baseline"),
        # repro.fabric is CellId + the store; the pool is the stdlib's.
        ("repro.fabric", "DirectoryClaims"),
        ("repro.fabric", "await_cells"),
        ("repro.fabric", "FabricDispatcher"),
        ("repro.fabric", "StealScheduler"),
        ("repro.fabric", "CellTask"),
        ("repro.fabric", "estimated_cost"),
        ("repro.fabric", "query"),
        ("repro.fabric", "QueryResult"),
        ("repro.fabric", "CellStatus"),
    ],
)
def test_removed_name_is_not_importable(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_fabric_exports_identity_and_store_only():
    import repro.fabric

    assert sorted(repro.fabric.__all__) == [
        "CacheStats", "CampaignCache", "CellId", "canonical_json", "open_cache"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--replicas", "12"],
        ["campaign", "resume"],
        ["campaign", "query"],
    ],
    ids=" ".join,
)
def test_cli_subcommand_is_gone(argv, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_resume_alias_is_gone(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "run", "--resume", "journal.jsonl"])
    assert exit_info.value.code == 2
    assert "--resume" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--coordinate"], ["--lease-seconds", "60"]], ids=" ".join
)
def test_cli_multi_host_flag_is_gone(flag, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "run", *flag])
    assert exit_info.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_engine_is_constructed_at_the_front_door_and_three_fixtures():
    """``SyncNetwork(...)`` call sites under ``src/repro`` outside the
    engine's own package: ``run_config`` and the three designated fixtures
    (each says why at its call).  A new site bypasses the registry's model
    axis, option normalization and record/replay — route it through
    ``repro.harness.execute`` or add it here on purpose."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    sites = set()
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).parts[0] == "runtime":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                called = node.func
                name = getattr(called, "attr", getattr(called, "id", None))
                if name == "SyncNetwork":
                    sites.add(path.relative_to(package).as_posix())
    assert sites == {
        "harness/registry.py",
        "analysis/conformance.py",
        "analysis/report.py",
        "lowerbound/rollout_adversary.py",
    }
