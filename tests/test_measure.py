"""The one sweep driver, the one adversary gallery, the one budget rule.

``tests/data/golden-sweeps.json`` was generated at the commit *before*
``measure`` replaced the five ``measure_*`` drivers and ``sweep_tradeoff``
(by calling those functions), and records what every protocol's builder
returned for an unset ``t``; the sweeps behind EXPERIMENTS.md must not move.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.adversary import (
    GALLERY,
    RandomOmissionAdversary,
    SilenceAdversary,
    VoteBalancingAdversary,
)
from repro.analysis import CampaignSpec, measure, mixed_inputs
from repro.analysis.conformance import check_consensus_protocol
from repro.cli import main
from repro.harness import ExecutionConfig, available_protocols, protocol_spec
from repro.params import ProtocolParams

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden-sweeps.json").read_text()
)


def plus(base):
    return lambda n: base + n


def balancing(n, t, seed):
    return VoteBalancingAdversary(seed=n)


#: Each old driver call, re-expressed on ``measure``.
SWEEPS = {
    # measure_consensus_scaling([16, 36], seed=5)
    "algorithm1-none": lambda: measure(
        "algorithm1", [16, 36], seed=plus(5), whp_retries=3
    ),
    # measure_consensus_scaling(..., adversary_factory=balancing_adversary)
    "algorithm1-balancing": lambda: measure(
        "algorithm1", [16, 36], adversary=balancing, seed=plus(5),
        whp_retries=3,
    ),
    # measure_dolev_strong([16, 24], fault_fraction=4, seed=5)
    "dolev-strong": lambda: measure(
        "dolev-strong", [16, 24], adversary="silence",
        t=lambda n: max(1, n // 4), seed=plus(5),
    ),
    # measure_phase_king([17, 25], seed=5)
    "phase-king": lambda: measure(
        "phase-king", [17, 25], adversary="silence", seed=plus(5)
    ),
    # measure_ben_or([16, 24], seed=5)
    "ben-or": lambda: measure(
        "ben-or", [16, 24], adversary="silence", seed=plus(5)
    ),
}


@pytest.fixture
def lockstep_only(session_default_model):
    if session_default_model != "lockstep":
        pytest.skip("the golden sweeps were generated under lockstep")


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_measure_reproduces_the_old_driver(name, lockstep_only):
    assert [asdict(point) for point in SWEEPS[name]()] == GOLDEN["sweeps"][name]


@pytest.mark.parametrize("want", GOLDEN["sweeps"]["tradeoff-x"], ids=str)
def test_measure_reproduces_sweep_tradeoff(want, lockstep_only):
    """``sweep_tradeoff(mixed(32), [2, 8], seed=9)``: the measures are
    exact; ``rounds`` is now the paper's time metric, one more than the
    executed-round count the old driver reported."""
    (point,) = measure("tradeoff", [32], seed=9, options={"x": want["x"]})
    for field in ("random_bits", "random_calls", "bits_sent", "decision"):
        assert getattr(point, field) == want[field], field
    assert point.rounds == want["time_to_agreement"]
    assert point.rounds == want["executed_rounds"] + 1


def test_measure_takes_a_factory_and_retries_only_on_fallback():
    built = []

    def factory(n, t, seed):
        built.append((n, t, seed))
        return None

    measure("ben-or", [8, 12], adversary=factory, seed=plus(100))
    assert built == [(8, 1, 108), (12, 1, 112)]
    # Ben-Or never runs the Dolev-Strong fallback: one attempt per point.
    built.clear()
    measure("ben-or", [8], adversary=factory, seed=3, whp_retries=3)
    assert built == [(8, 1, 3)]


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
    report = check_consensus_protocol(
        lambda inputs, t: [], n=0, t=0, seeds=(0,)
    )
    assert {result.adversary for result in report.results} == names


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
    from repro.harness import execute

    assert execute("ben-or", mixed_inputs(8), seed=1).request.t is None
    assert execute("ben-or", mixed_inputs(8), t=2, seed=1).request.t == 2
