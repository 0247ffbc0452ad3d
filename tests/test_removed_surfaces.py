"""Removed surfaces fail loudly at call time.

Nothing lists these statically: the first call fails, and this file pins
that.  The loose ``run_campaign(ns=...)`` keywords and
``CampaignSpec.cell_key`` are pinned the same way by
``test_campaign.TestRemovedGridKwargs``.  The call-site censuses at the end
of this file keep one engine front door, no per-copy ``Message`` loop in
the engine (docs/lint.md, *Retired rules*) and no protocol receive loop
over a bare inbox.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import _journal, campaign
from repro.analysis.campaign import CampaignSpec, resolve, run_campaign
from repro.analysis.montecarlo import wilson_interval
from repro.cli import main as cli_main
from repro.fabric import CampaignCache, CellId
from repro.graphs import SpreadingGraph
from repro.harness import ExecutionConfig, execute
from repro.lowerbound import (
    CoinGamePoint,
    Lemma9Check,
    verify_lemma9,
    verify_threshold_inequality,
)
from repro.replay import (
    ShrinkResult,
    load_recipe,
    record,
    replay,
    shrink_recipe,
)
from repro.runtime import (
    Adversary,
    CountingRandom,
    ExecutionCore,
    MessageBatch,
    Multicast,
    NetworkView,
    ProcessEnv,
    SyncNetwork,
)
from repro.transport import worker
from repro.transport.tcp import RemoteExecutionCore

INPUTS = [0, 1, 1, 0, 1]
SPEC = CampaignSpec("removed", "ben-or", ns=(5,))
GOLDEN = Path(__file__).parent / "data" / "golden-ben-or.json"


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
    "run[0]": (TypeError, lambda: execute("ben-or", INPUTS, t=0)[0]),
    "result, processes = run": (
        TypeError, lambda: unpack(execute("ben-or", INPUTS, t=0))
    ),
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
    # The run report is always on; a campaign has no observer channels.
    "CampaignSpec(capture=)": (
        TypeError, lambda: CampaignSpec("removed", capture=["trace"])
    ),
    "NetworkView(round_no=)": (
        TypeError,
        lambda: NetworkView(
            round_no=0, processes=(), messages=(), faulty=frozenset(),
            budget_left=0, decisions={}, terminated=frozenset(),
        ),
    ),
    "ShrinkResult.omission_ratio": (
        AttributeError, lambda: ShrinkResult.omission_ratio
    ),
    # The cache answers ``get``; an entry lives at ``entry_path``.
    "CampaignCache.contains()": (
        AttributeError, lambda: CampaignCache("unused").contains
    ),
    "CampaignCache.scan()": (
        AttributeError, lambda: CampaignCache("unused").scan
    ),
    "len(CampaignCache)": (TypeError, lambda: len(CampaignCache("unused"))),
    # One round model: lockstep rounds, driven by ``SyncNetwork.run``.
    "execute(model=)": (
        TypeError, lambda: execute("ben-or", INPUTS, model="lockstep")
    ),
    "record(model_options=)": (
        TypeError, lambda: record("ben-or", INPUTS, model_options={})
    ),
    # One recording signature: record takes an ExecutionConfig.
    "record(protocol, inputs)": (TypeError, lambda: record("ben-or", INPUTS)),
    "replay(recipe, model=)": (
        TypeError, lambda: replay(load_recipe(GOLDEN), model="lockstep")
    ),
    "CampaignSpec(model=)": (
        TypeError, lambda: CampaignSpec("removed", model="lockstep")
    ),
    "SyncNetwork(model=)": (TypeError, lambda: SyncNetwork([], model=None)),
    "SyncNetwork.in_flight_messages": (
        AttributeError, lambda: SyncNetwork.in_flight_messages
    ),
    # The transport is a name: a live object is not a transport.
    "execute(transport=<object>)": (
        ValueError, lambda: execute("ben-or", INPUTS, transport=object())
    ),
    "CellId < CellId": (
        TypeError,
        lambda: sorted(
            CellId.make(protocol="ben-or", n=5, adversary="none", seed=seed)
            for seed in (0, 1)
        ),
    ),
    # No rollout fork: a run's coins come from its seed alone.
    "SyncNetwork(reseed_at=)": (
        TypeError, lambda: SyncNetwork([], reseed_at=(1, 2))
    ),
    # One execution loop: the worker's copy of the core is gone with it.
    "ProcessShard.step(round, inboxes, reseed)": (
        AttributeError, lambda: worker.ProcessShard.step(None, 0, {}, None)
    ),
    # One value in use, one constant: strictness is ``not recipe.failing``,
    # invariants are always on, the shrinker's predicate and budget fixed.
    "replay(strict=)": (
        TypeError, lambda: replay(load_recipe(GOLDEN), strict=True)
    ),
    "replay(invariants=)": (
        TypeError, lambda: replay(load_recipe(GOLDEN), invariants=False)
    ),
    "record(invariants=)": (
        TypeError,
        lambda: record(ExecutionConfig("ben-or", INPUTS), invariants=False),
    ),
    "shrink_recipe(fails=)": (
        TypeError, lambda: shrink_recipe(load_recipe(GOLDEN), fails=None)
    ),
    "shrink_recipe(max_replays=)": (
        TypeError, lambda: shrink_recipe(load_recipe(GOLDEN), max_replays=9)
    ),
    "ExecutionCore(metrics=)": (
        TypeError, lambda: ExecutionCore([], metrics=None)
    ),
    "ProcessEnv.broadcast(include_self=)": (
        TypeError,
        lambda: ProcessEnv(0, 2, CountingRandom(0)).broadcast(
            "x", include_self=True
        ),
    ),
    # One store for finished cells: a sweep resumes from its cache, and
    # the journal is a write-only log.
    "load_journal(dedupe=)": (
        AttributeError,
        lambda: campaign.load_journal("unused.jsonl", dedupe=False),
    ),
    "load_journal(path)": (
        AttributeError, lambda: campaign.load_journal("unused.jsonl")
    ),
    "load_journal_records(path)": (
        AttributeError,
        lambda: _journal.load_journal_records("unused.jsonl"),
    ),
    "resolve(spec, resume=<records>)": (
        TypeError, lambda: resolve(SPEC, resume=[])
    ),
    "run_campaign(spec, resume=<records>)": (
        TypeError, lambda: run_campaign(SPEC, resume=[])
    ),
    "resolve(spec, resume=<path>)": (
        TypeError, lambda: resolve(SPEC, resume="unused.jsonl")
    ),
    "run_campaign(spec, resume=<path>)": (
        TypeError, lambda: run_campaign(SPEC, resume="unused.jsonl")
    ),
    **{
        " ".join(argv): (SystemExit, lambda argv=argv: cli_main(argv))
        for argv in (
            ("campaign", "run", "--journal", "unused.jsonl"),
            ("campaign", "status", "--journal", "unused.jsonl"),
            ("campaign", "run", "--cache-stats", "unused.json"),
        )
    },
    "wilson_interval(z=)": (TypeError, lambda: wilson_interval(1, 2, z=1.0)),
    "verify_threshold_inequality(thresholds_per_k=)": (
        TypeError,
        lambda: verify_threshold_inequality([16], [1.0], thresholds_per_k=3),
    ),
    "verify_lemma9(t_values=)": (
        TypeError, lambda: verify_lemma9([16], t_values=[0.1])
    ),
}
# Methods and properties that only the rollout fork or tests called.
REMOVED_CALLS.update(
    {
        f"{owner.__name__}.{attribute}": (
            AttributeError,
            lambda owner=owner, attribute=attribute: getattr(owner, attribute),
        )
        for owner, attributes in (
            (SyncNetwork, ("add_observer", "maybe_reseed")),
            (ExecutionCore, ("reseed",)),
            (RemoteExecutionCore, ("reseed",)),
            (
                CountingRandom,
                ("reseed", "randrange", "uniform", "choice", "sample", "shuffle"),
            ),
            (SpreadingGraph, ("edges", "degree_within")),
            # A batch out of sender order is refused, never re-sorted; the
            # batch is its own columns, indexed through them.
            (MessageBatch, ("sender_sorted", "columns", "offsets", "_copy_at")),
            (Multicast, ("message",)),
            (Lemma9Check, ("slack",)),
            (CoinGamePoint, ("ratio",)),
        )
        for attribute in attributes
    }
)


@pytest.mark.parametrize("surface", sorted(REMOVED_CALLS))
def test_removed_call_shape_raises(surface):
    error, call = REMOVED_CALLS[surface]
    with pytest.raises(error):
        call()


# Whole packages that are gone: none of their names can be imported.
REMOVED_PACKAGES = frozenset(
    {
        "repro.lint",
        "repro.runtime.trace",
        "repro.analysis.experiments",
        "repro.runtime.models",
        "repro.transport.base",
        "repro.transport.inprocess",
        "repro.lowerbound.rollout_adversary",
        "repro.analysis.conformance",
        "repro.runtime.columnar",
    }
)


@pytest.mark.parametrize(
    "module,name",
    [
        ("repro.harness", "ExecutionRequest"),
        ("repro.analysis", "record_cell_key"),
        ("repro.analysis.campaign", "record_cell_key"),
        ("repro.transport", "default_transport_name"),
        ("repro.cli", "ADVERSARIES"),
        # One sweep runner, one gallery: campaign cells + `GALLERY`.
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
        # One checker: the battery is repro.replay.check_consensus_protocol.
        ("repro.analysis", "check_consensus_protocol"),
        ("repro.analysis", "ConformanceReport"),
        ("repro.analysis", "ScenarioResult"),
        ("repro.replay", "run_checked"),
        ("repro.replay", "record_config"),
        ("repro.runtime", "recipe_to_dict"),
        ("repro.runtime", "recipe_from_dict"),
        ("repro.lowerbound", "ScriptedAdversary"),
        # The linter package is gone with everything it exported.
        ("repro.lint", "Baseline"),
        ("repro.lint", "Project"),
        ("repro.lint", "register_rule"),
        ("repro.lint", "rule_for"),
        ("repro.runtime.trace", "TraceRecorder"),
        # One socket discipline: blocking sockets at both ends of a link.
        ("repro.transport", "AsyncioTcpTransport"),
        ("repro.transport", "LinkMetricsObserver"),
        ("repro.transport.framing", "read_frame"),
        # Names only their own tests called.
        ("repro.runtime", "spawn_sources"),
        ("repro.runtime", "total_random_bits"),
        ("repro.runtime", "total_random_calls"),
        ("repro.analysis.theory", "dolev_strong_rounds"),
        ("repro.analysis.theory", "phase_king_bits"),
        ("repro.graphs", "connected_components"),
        ("repro.analysis", "ratio_summary"),
        ("repro.analysis", "RatioSummary"),
        ("repro.analysis", "hbar"),
        ("repro.lowerbound", "corollary1_budget"),
        ("repro.lowerbound.coin_game", "corollary1_budget"),
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
        # Experiments are experiments/<id>.json specs read by one reader.
        ("repro.analysis", "table1"),
        ("repro.analysis", "render_table"),
        ("repro.analysis", "Table1Row"),
        ("repro.analysis", "decision_bias"),
        ("repro.analysis", "agreement_failure_rate"),
        ("repro.analysis.montecarlo", "decision_bias"),
        ("repro.analysis.montecarlo", "agreement_failure_rate"),
        ("repro.analysis.report", "ExperimentRecord"),
        ("repro.analysis.report", "ALL_EXPERIMENTS"),
        ("repro.analysis.report", "run_full_report"),
        ("repro.analysis.report", "render_markdown"),
        ("repro.analysis.report", "main"),
        # One account of a run: the engine's RunReport.
        *(
            (module, name)
            for module in ("repro.runtime", "repro.harness")
            for name in (
                "MetricsObserver", "RoundProfiler", "TraceRecorder",
                "RoundTrace", "trace_to_dict", "default_state_probe",
            )
        ),
        ("repro.analysis.campaign", "CAPTURES"),
        # What the reachability census (tools/reachability.py) found that
        # nothing runs.
        ("repro.core", "ConsensusLog"),
        ("repro.core", "LogEntry"),
        ("repro.runtime", "HAVE_NUMPY"),
        ("repro.runtime.columnar", "HAVE_NUMPY"),
        ("repro.runtime.delivery", "_COLUMNAR_MIN_FANOUT"),
        ("repro.graphs", "theorem4_report"),
        ("repro.graphs", "Theorem4Report"),
        ("repro.graphs", "degree_report"),
        ("repro.graphs", "DegreeReport"),
        ("repro.baselines", "AmortizationPoint"),
        ("repro.baselines", "run_collectors"),
        # Experiments run as campaign cells: the second grid runner (its
        # ``whp_retries`` became the report's explicit retry cells) and the
        # Monte-Carlo trial loop are gone, and so is what only tests read.
        ("repro.analysis.experiments", "measure"),
        ("repro.analysis.experiments", "ScalingPoint"),
        ("repro.analysis", "measure"),
        ("repro.analysis", "ScalingPoint"),
        ("repro.analysis", "estimate_rate"),
        ("repro.analysis", "RateEstimate"),
        ("repro.analysis", "fallback_rate_vs_epochs"),
        ("repro.analysis.montecarlo", "estimate_rate"),
        ("repro.analysis.montecarlo", "RateEstimate"),
        ("repro.analysis.montecarlo", "fallback_rate_vs_epochs"),
        ("repro.analysis", "load_campaign"),
        ("repro.analysis.campaign", "load_campaign"),
        # One round model: the round-model axis and its registry are gone.
        *(
            (module, name)
            for module in ("repro.runtime", "repro.runtime.models")
            for name in (
                "RoundModel", "LockstepModel", "PartialSynchronyModel",
                "create_model", "available_models", "resolve_model",
            )
        ),
        ("repro.runtime.models", "_DEFAULT_MODEL"),
        ("repro.runtime.models", "create_named"),
        ("repro.transport", "create_named"),
        # One front door: every run is ``execute(name, ...)``, and the
        # transport is a name, not an object.
        *(
            (module, name)
            for module, names in (
                ("repro", ("run_consensus",)),
                (
                    "repro.core",
                    (
                        "run_consensus", "run_tradeoff_consensus",
                        "run_early_stopping_consensus",
                        "run_multivalued_consensus",
                    ),
                ),
                (
                    "repro.baselines",
                    ("run_ben_or", "run_dolev_strong", "run_phase_king", "run_trb"),
                ),
                (
                    "repro.transport",
                    (
                        "Transport", "InProcessTransport", "TcpTransport",
                        "create_transport", "resolve_transport",
                    ),
                ),
            )
            for name in names
        ),
        ("repro.transport.tcp", "TcpTransport"),
        ("repro.transport.base", "Transport"),
        ("repro.transport.inprocess", "InProcessTransport"),
        # The rollout fork (its reseed plumbing is pinned in REMOVED_CALLS)
        # and what the census found only tests called.
        *(
            (module, name)
            for module, names in (
                (
                    "repro.lowerbound",
                    (
                        "RolloutValencyAdversary", "RolloutConfig",
                        "replay_prefix", "KeepSilencingFaulty",
                        "lemma13_probabilistic_witness",
                        "adversary_cost_to_cancel",
                    ),
                ),
                ("repro.lowerbound.rollout_adversary", ("RolloutValencyAdversary",)),
                ("repro.lowerbound.prob_valency", ("lemma13_probabilistic_witness",)),
                ("repro.lowerbound.anticoncentration", ("adversary_cost_to_cancel",)),
                (
                    "repro.adversary",
                    ("UnionAdversary", "ThrottledAdversary", "RecordingAdversary"),
                ),
                (
                    "repro.adversary.compose",
                    ("UnionAdversary", "ThrottledAdversary", "RecordingAdversary"),
                ),
                ("repro.graphs", ("dense_neighborhood_layers",)),
                ("repro.graphs.cores", ("dense_neighborhood_layers",)),
                (
                    "repro.runtime",
                    (
                        "metrics_from_dict", "result_from_dict",
                        "save_result", "load_result", "receive_round",
                    ),
                ),
                (
                    "repro.runtime.serialization",
                    (
                        "metrics_from_dict", "result_from_dict",
                        "save_result", "load_result",
                    ),
                ),
                ("repro.runtime.process", ("receive_round",)),
                ("repro.runtime.randomness", ("_range_bits",)),
                # One execution loop: a TCP worker runs its forked
                # ExecutionCore, and the TCP options are one.
                ("repro.transport.worker", ("ProcessShard",)),
                ("repro.transport.tcp", ("OPTIONS",)),
                # One round batch: MessageBatch holds its own columns, and
                # delivery is two module functions.
                ("repro.runtime", ("ColumnarBatch",)),
                (
                    "repro.runtime.columnar",
                    ("ColumnarBatch", "DeliveryPlan", "plan_delivery", "first_illegal_omission"),
                ),
                ("repro.runtime.delivery", ("Delivery", "DeliveryPlan", "_raise_illegal")),
            )
            for name in names
        ),
    ],
)
def test_removed_name_is_not_importable(module, name):
    if module in REMOVED_PACKAGES:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
        return
    assert not hasattr(importlib.import_module(module), name)


def test_numpy_is_a_hard_dependency(repro_env):
    """Every round is delivered through numpy column vectors: numpy is an
    install requirement, and an interpreter where it does not import
    cannot import the engine (there is no pure-python fallback)."""
    import configparser

    setup = configparser.ConfigParser()
    setup.read(Path(__file__).resolve().parent.parent / "setup.cfg")
    assert setup["options"]["install_requires"].split() == ["numpy"]
    assert "fast" not in setup["options.extras_require"]
    run = subprocess.run(
        [sys.executable, "-c",
         'import sys; sys.modules["numpy"] = None\nimport repro.runtime'],
        capture_output=True, text=True, timeout=60, env=repro_env,
    )
    assert run.returncode != 0
    assert "numpy" in run.stderr


def test_linter_package_is_gone(repro_env):
    """The determinism properties are ``tests/test_determinism_census.py``."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.lint")
    run = subprocess.run(
        [sys.executable, "-m", "repro.lint"],
        capture_output=True, text=True, timeout=60, env=repro_env,
    )
    assert run.returncode != 0
    assert "No module named repro.lint" in run.stderr


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
        # Each is a `report --only <id>` selector now.
        ["tradeoff"],
        ["table1"],
        ["coin-game"],
        ["graph-check"],
        ["ablation"],
    ],
    ids=" ".join,
)
def test_cli_subcommand_is_gone(argv, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_report_output_flag_is_gone(capsys):
    """``report`` writes EXPERIMENTS.md in place; ``--only`` selects."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["report", "--output", "-"])
    assert exit_info.value.code == 2
    assert "--output" in capsys.readouterr().err


def test_cli_replay_lenient_flag_is_gone(capsys):
    """A failing recipe replays leniently, a passing one strictly."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["replay", str(GOLDEN), "--lenient"])
    assert exit_info.value.code == 2
    assert "--lenient" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--model", "lockstep"],
        ["campaign", "run", "--model", "lockstep"],
        ["replay", str(GOLDEN), "--model", "lockstep"],
    ],
    ids=" ".join,
)
def test_cli_model_flag_is_gone(argv, capsys):
    """The engine runs lockstep rounds only; no command selects a model."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["campaign", "run", "--capture", "trace"], ["run", "--profile"]],
    ids=" ".join,
)
def test_cli_observer_flag_is_gone(argv, capsys):
    """``run`` always prints the report's phases; cells keep no capture."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    flag = next(arg for arg in argv if arg.startswith("--"))
    assert flag in capsys.readouterr().err


def test_engine_is_constructed_at_the_front_door_only():
    """``SyncNetwork(...)`` call sites under ``src/repro`` outside the
    engine's own package: ``run_config`` alone.  A new site bypasses the
    registry's transport axis, option normalization and record/replay —
    route it through ``repro.harness.execute`` (an unregistered
    ``ProtocolSpec`` runs ad hoc processes)."""
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
    assert sites == {"harness/registry.py"}


_LOOPS = (
    ast.For, ast.AsyncFor, ast.While,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def per_copy_message_sites(tree):
    """Names of the functions that call ``Message(...)`` under a loop or
    comprehension of their own."""
    sites = set()

    def visit(node, function, in_loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, in_loop = node.name, False
        elif isinstance(node, _LOOPS):
            in_loop = True
        elif (
            in_loop
            and isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "Message"
        ):
            sites.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function, in_loop)

    visit(tree, "<module>", False)
    return sites


def test_engine_builds_messages_per_copy_only_where_one_is_read():
    """A ``Message(...)`` per copy is O(copies) allocations where the
    columnar plan needs O(records); under ``src/repro/runtime`` it happens
    only in the batch's flat expansion and the lazy views' cache fill (the
    reference object loop is ``tests/delivery_oracle.py``).  (The
    dynamic half is the ``materialized`` fixture's zero-fill tests.)  A
    new site queues a ``Multicast`` or hands out a lazy view instead — or
    is added here on purpose."""
    runtime = Path(__file__).resolve().parent.parent / "src" / "repro" / "runtime"
    sites = {
        (path.relative_to(runtime).as_posix(), function)
        for path in sorted(runtime.rglob("*.py"))
        for function in per_copy_message_sites(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    }
    assert sites == {
        ("messages.py", "__iter__"),
        ("delivery.py", "_materialize"),
    }
    planted = ast.parse(
        "def fan_out(record):\n"
        "    one = Message(0, 1, 'p', 8)\n"
        "    return [Message(0, r, 'p', 8) for r in record.recipients]\n"
        "def single(record):\n"
        "    return Message(0, 1, 'p', 8)\n"
    )
    assert per_copy_message_sites(planted) == {"fan_out"}


def bare_inbox_loops(tree):
    """Lines of the ``for`` statements and comprehensions that iterate a
    bare ``inbox`` name."""
    return sorted(
        node.iter.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
        and isinstance(node.iter, ast.Name)
        and node.iter.id == "inbox"
    )


def test_protocols_read_inboxes_by_column():
    """Iterating an inbox builds one ``Message`` per copy on a lazy view;
    a receive step under ``src/repro/core`` or ``src/repro/baselines``
    reads ``inbox_senders`` / ``inbox_payloads`` instead, whatever it
    does with them."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    sites = [
        f"{path.relative_to(package).as_posix()}:{line}"
        for layer in ("core", "baselines")
        for path in sorted((package / layer).rglob("*.py"))
        for line in bare_inbox_loops(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == []
    planted = ast.parse(
        "def receive(inbox):\n"
        "    for m in inbox:\n"
        "        pass\n"
        "    for p in inbox_payloads(inbox):\n"
        "        pass\n"
        "    return [m.sender for m in inbox], [q for q in inboxes]\n"
    )
    assert bare_inbox_loops(planted) == [2, 6]


def forwards_to_execute(tree):
    """Names of the top-level functions whose body, past a docstring and
    imports, is one ``return execute(...)``."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = [
            statement
            for statement in node.body
            if not isinstance(statement, (ast.Import, ast.ImportFrom))
            and not (
                isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
            )
        ]
        if (
            len(body) == 1
            and isinstance(body[0], ast.Return)
            and isinstance(body[0].value, ast.Call)
            and getattr(body[0].value.func, "id", None) == "execute"
        ):
            found.append(node.name)
    return found


def test_no_function_only_forwards_to_execute():
    """Every run is ``execute(name, ...)``: a function that only forwards
    its keywords there is a second front door for one protocol, with its
    own defaults to drift (the ``run_*`` wrappers were eight)."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    sites = [
        f"{path.relative_to(package).as_posix()}:{name}"
        for path in sorted(package.rglob("*.py"))
        for name in forwards_to_execute(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == []
    planted = ast.parse(
        "def run_x(inputs, seed=0):\n"
        "    '''Doc.'''\n"
        "    from repro.harness import execute\n"
        "    return execute('x', inputs, seed=seed)\n"
        "def measure(inputs):\n"
        "    return execute('x', inputs).decision\n"
    )
    assert forwards_to_execute(planted) == ["run_x"]
