"""Sweeps are campaign cells; one adversary gallery; one budget rule.

``tests/data/golden-sweeps.json`` was generated at the commit *before* one
sweep driver replaced the five ``measure_*`` drivers and ``sweep_tradeoff``
(by calling those functions), and records what every protocol's builder
returned for an unset ``t``.  Each row is re-expressed here on campaign
cells (``run_campaign``; the old drivers' whp retry, which the report no
longer makes, is spelled out inline); the two rows no cell describes — an
adversary seeded by ``n``, Dolev-Strong at t = n/4 — call ``execute``.
"""

import inspect
import json
import math
from pathlib import Path

import pytest

from repro.adversary import (
    GALLERY,
    RandomOmissionAdversary,
    SilenceAdversary,
    VoteBalancingAdversary,
)
from repro.analysis import (
    CampaignSpec,
    campaign,
    loglog_slope,
    mixed_inputs,
    report,
    run_campaign,
)
from repro.cli import main
from repro.harness import (
    ExecutionConfig,
    available_protocols,
    execute,
    protocol_spec,
)
from repro.params import ProtocolParams
from repro.replay import check_consensus_protocol

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden-sweeps.json").read_text()
)
PARAMS = ProtocolParams.practical()


def cell_row(record):
    """A campaign record in the golden's row shape."""
    return {
        "n": record["n"], "t": record["t"], "rounds": record["rounds"],
        "bits_sent": record["bits"], "messages_sent": record["messages"],
        "random_bits": record["random_bits"],
        "random_calls": record["random_calls"],
        "decision": record["decision"], "used_fallback": record["fallback"],
    }


def run_row(run, t):
    """An ``execute`` run in the golden's row shape."""
    metrics = run.metrics
    return {
        "n": run.request.n, "t": t, "rounds": run.result.time_to_agreement(),
        "bits_sent": metrics.bits_sent, "messages_sent": metrics.messages_sent,
        "random_bits": metrics.random_bits,
        "random_calls": metrics.random_calls, "decision": run.decision,
        "used_fallback": run.ran_deterministic_fallback,
    }


def silenced(protocol, ns):
    return [
        cell_row(run_campaign(CampaignSpec(
            "golden", protocol, ns=(n,), adversaries=("silence",),
            seeds=(5 + n,),
        ))[0])
        for n in ns
    ]


def retried(ns):
    """The old driver's whp retry on cells: the cell at seed 5 + n and,
    only after a fallback, the cells at + 7919 k (k = 1, 2) until one does
    not fall back."""
    rows = []
    for n in ns:
        for k in range(3):
            (record,) = run_campaign(CampaignSpec(
                "golden", "algorithm1", ns=(n,), seeds=(5 + n + 7919 * k,)
            ))
            if not record["fallback"]:
                break
        rows.append(cell_row(record))
    return rows


def balancing(ns):
    """``VoteBalancingAdversary(seed=n)`` is not the gallery's ``balance``
    (which seeds from the cell), so this row's whp path is spelled out."""
    rows = []
    for n in ns:
        for k in range(3):
            run = execute(
                "algorithm1", mixed_inputs(n), seed=5 + n + 7919 * k,
                adversary=VoteBalancingAdversary(seed=n),
            )
            if not run.ran_deterministic_fallback:
                break
        rows.append(run_row(
            run, protocol_spec("algorithm1").campaign_t(n, PARAMS)
        ))
    return rows


def quarter_budget(ns):
    """Dolev-Strong at t = n/4, silenced: its t is not the default."""
    return [
        run_row(execute(
            "dolev-strong", mixed_inputs(n), t=n // 4, seed=5 + n,
            adversary=SilenceAdversary(range(n // 4)),
        ), n // 4)
        for n in ns
    ]


#: Each old driver call, re-expressed on cells.
SWEEPS = {
    # measure_consensus_scaling([16, 36], seed=5)
    "algorithm1-none": lambda: retried([16, 36]),
    # measure_consensus_scaling(..., adversary_factory=balancing_adversary)
    "algorithm1-balancing": lambda: balancing([16, 36]),
    # measure_dolev_strong([16, 24], fault_fraction=4, seed=5)
    "dolev-strong": lambda: quarter_budget([16, 24]),
    # measure_phase_king([17, 25], seed=5)
    "phase-king": lambda: silenced("phase-king", [17, 25]),
    # measure_ben_or([16, 24], seed=5)
    "ben-or": lambda: silenced("ben-or", [16, 24]),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_measure_reproduces_the_old_driver(name):
    assert SWEEPS[name]() == GOLDEN["sweeps"][name]


@pytest.mark.parametrize("want", GOLDEN["sweeps"]["tradeoff-x"], ids=str)
def test_measure_reproduces_sweep_tradeoff(want):
    """``sweep_tradeoff(mixed(32), [2, 8], seed=9)``: the measures are
    exact; ``rounds`` is now the paper's time metric, one more than the
    executed-round count the old driver reported."""
    (record,) = run_campaign(CampaignSpec(
        "golden", "tradeoff", ns=(32,), seeds=(9,), options={"x": want["x"]}
    ))
    for field in ("random_bits", "random_calls", "decision"):
        assert record[field] == want[field], field
    assert record["bits"] == want["bits_sent"]
    assert record["rounds"] == want["time_to_agreement"]
    assert record["rounds"] == want["executed_rounds"] + 1


# ---------------------------------------------------------------------------
# The scaling sweep and the epoch-budget ablation run cells, and only the
# cells they name.
@pytest.fixture
def cells_run(monkeypatch):
    """Every cell ``run_campaign`` executes, as ``(protocol, n, adversary,
    seed, options)``."""
    run = []
    original = campaign._run_cell

    def spy(spec, n, adversary, seed, *rest):
        run.append((spec.protocol, n, adversary, seed, dict(spec.options)))
        return original(spec, n, adversary, seed, *rest)

    monkeypatch.setattr(campaign, "_run_cell", spy)
    return run


def test_scaling_runs_its_grid_and_nothing_else(cells_run):
    """E-TH1's measure runs ``ns`` x (balance, none) x ``seeds`` once each,
    whatever fell back: no cell is re-run at another seed."""
    ns, seeds = [16, 24], [1, 2, 3]
    values = report.scaling(ns, seeds, unanimous_ns=[16], unanimous_seed=3)
    assert cells_run == [
        ("algorithm1", n, adversary, seed, {})
        for n in ns
        for adversary in ("balance", "none")
        for seed in seeds
    ]
    assert len(values["fallbacks"]) == len(values["quiet_fallbacks"]) == 2
    assert values["fallback_rate"] == sum(values["fallbacks"]) / 6


def record(n, rounds, fallback):
    return {"n": n, "rounds": rounds, "fallback": fallback}


def test_fast_path_reads_the_cells_that_did_not_fall_back():
    records = [
        record(16, 9, False), record(16, 40, True), record(16, 7, False),
        record(16, 8, False), record(16, 5, False),
        record(24, 50, True), record(24, 60, True),
        record(36, 11, True), record(36, 12, False), record(36, 10, False),
    ]
    medians, fallbacks = report.fast_path(records, "rounds")
    # median_low: a value some run produced, never the mean of two.
    assert medians[0] == 7 and medians[2] == 10
    assert math.isnan(medians[1])
    assert fallbacks == [1, 2, 1]
    # A missing value is reported as such, and fails its criterion.
    spec = {
        "id": "E-X", "args": {}, "criteria": [["rounds", ">", 0]],
        "measured": "rounds {rounds}, slope {slope:.2f}",
    }
    values = {"rounds": medians, "slope": loglog_slope([16, 24, 36], medians)}
    assert report.evaluate(spec, values)["verdict"] == "VIOLATED"
    assert report.evaluate(spec, {"rounds": [7, 10]})["verdict"] == "holds"
    assert report._measured(spec, values) == "rounds [7, nan, 10], slope nan"


def test_epoch_budget_runs_one_cell_per_seed_and_budget(cells_run):
    """E-ABL1's arguments: 4 budgets x 12 seeds, each a cell, and nothing
    else; the fallback counts are what the committed result holds."""
    spec = json.loads(
        (Path(__file__).parent.parent / "experiments" / "E-ABL1.json")
        .read_text()
    )
    args = spec["args"]
    values = report.epoch_budget(**args)
    first = args["seed"] * 1000 + 17
    assert cells_run == [
        ("algorithm1", args["n"], "none", seed, {"num_epochs": budget})
        for budget in args["epochs"]
        for seed in range(first, first + args["trials"])
    ]
    assert len(cells_run) == 4 * 12
    assert values["fallbacks"] == [12, 12, 3, 0]


# ---------------------------------------------------------------------------
# One gallery.
def test_every_gallery_name_builds():
    for name, factory in GALLERY.items():
        adversary = factory(16, 2, 0)
        assert (adversary is None) == (name == "none")


def test_gallery_is_what_every_surface_accepts():
    names = set(GALLERY)
    assert names == {"none", "silence", "random", "balance", "staggered-crash"}
    CampaignSpec("all", "ben-or", ns=(8,), adversaries=sorted(names))
    with pytest.raises(ValueError, match="unknown adversaries"):
        CampaignSpec("bad", "ben-or", ns=(8,), adversaries=("random-omission",))
    for name in names:
        assert main(
            ["run", "--protocol", "ben-or", "--n", "8", "--adversary", name]
        ) == 0
    with pytest.raises(SystemExit):
        main(["run", "--adversary", "random-omission"])
    battery = inspect.signature(check_consensus_protocol).parameters
    assert battery["adversaries"].default is GALLERY


def test_gallery_builds_the_parents_adversaries():
    """Same types and arguments as ``ADVERSARY_FACTORIES`` built, so the
    campaign records (and their pinned digests) cannot move."""
    assert GALLERY["none"](16, 2, 7) is None
    silence = GALLERY["silence"](16, 2, 7)
    assert type(silence) is SilenceAdversary
    assert vars(silence) == vars(SilenceAdversary(range(2)))
    for name, twin in (
        ("random", RandomOmissionAdversary(0.6, seed=7)),
        ("balance", VoteBalancingAdversary(seed=7)),
    ):
        built = GALLERY[name](16, 2, 7)
        assert type(built) is type(twin)
        state, want = vars(built), vars(twin)
        assert state.keys() == want.keys()
        assert state.pop("_rng").getstate() == want.pop("_rng").getstate()
        assert state == want


# ---------------------------------------------------------------------------
# One budget rule.
def test_every_shipped_protocol_is_pinned():
    shipped = {
        name for name in available_protocols()  # minus test-local plants
        if protocol_spec(name).build.__module__ == "repro.harness.protocols"
    }
    assert set(GOLDEN["default_budgets"]) == shipped


@pytest.mark.parametrize("name", sorted(GOLDEN["default_budgets"]))
def test_default_budget_is_what_the_builder_computed(name):
    spec = protocol_spec(name)
    params = ProtocolParams.practical()
    for n, want in GOLDEN["default_budgets"][name].items():
        config = ExecutionConfig(name, mixed_inputs(int(n)))
        _, budget = spec.build(spec.resolve_t(config))
        assert budget == want["network_t"], n
        if spec.sweepable:
            assert spec.campaign_t(int(n), params) == want["campaign_t"], n


def test_run_keeps_the_config_the_caller_wrote():
    """The resolved budget is handed to ``build`` only; recipes and cell
    identities read ``run.request`` and must keep seeing ``t=None``."""
    assert execute("ben-or", mixed_inputs(8), seed=1).request.t is None
    assert execute("ben-or", mixed_inputs(8), t=2, seed=1).request.t == 2
