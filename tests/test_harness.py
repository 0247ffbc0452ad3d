"""The unified execution harness: registry, execute() and ExecutionConfig."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.adversary import SilenceAdversary
from repro.analysis.campaign import CampaignSpec, run_campaign
from repro.baselines import BOTTOM
from repro.core import ConsensusRun
from repro.harness import (
    ExecutionConfig,
    ProtocolSpec,
    RoundObserver,
    available_protocols,
    execute,
    protocol_spec,
    register_protocol,
)
from repro.params import ProtocolParams


def mixed(n):
    return [pid % 2 for pid in range(n)]


# ---------------------------------------------------------------------------
# Registry basics.
def test_all_protocols_registered():
    names = available_protocols()
    assert set(names) >= {
        "algorithm1", "tradeoff", "early-stopping", "multivalued",
        "ben-or", "phase-king", "dolev-strong", "trb", "collectors",
    }


def test_sweepable_filter_excludes_collectors():
    sweepable = available_protocols(sweepable=True)
    assert "collectors" not in sweepable
    assert "ben-or" in sweepable
    assert "collectors" in available_protocols(sweepable=False)


def test_unknown_protocol_raises_with_choices():
    with pytest.raises(ValueError, match="unknown protocol"):
        protocol_spec("nope")


def test_duplicate_registration_rejected():
    spec = protocol_spec("ben-or")
    with pytest.raises(ValueError, match="already registered"):
        register_protocol(spec)
    # replace=True is the explicit override path.
    assert register_protocol(spec, replace=True) is spec


def test_campaign_t_defaults_to_params_max_faults():
    params = ProtocolParams.practical()
    assert protocol_spec("algorithm1").campaign_t(64, params) == (
        params.max_faults(64)
    )
    assert protocol_spec("ben-or").campaign_t(64, params) == 8
    assert protocol_spec("phase-king").campaign_t(64, params) == 8


# ---------------------------------------------------------------------------
# execute() semantics.
def test_execute_requires_inputs_or_n():
    with pytest.raises(ValueError, match="needs `inputs` or an explicit `n`"):
        execute("trb")
    with pytest.raises(ValueError, match="needs an input vector"):
        execute("algorithm1", n=16)


def test_execute_accepts_spec_object():
    run = execute(protocol_spec("ben-or"), mixed(8), seed=2)
    assert run.decision in (0, 1)


def test_execute_threads_observers():
    class RoundCount(RoundObserver):
        rounds = 0

        def on_round_end(self, round_no, network):
            self.rounds += 1

    first, second = RoundCount(), RoundCount()
    run = execute(
        "phase-king", mixed(16), t=2, seed=1, observers=(first, second),
    )
    assert first.rounds == second.rounds == run.metrics.rounds
    assert len(run.result.report.omitted_per_round) == run.metrics.rounds


def test_execute_options_mapping_and_kwargs_merge():
    run = execute(
        "tradeoff", mixed(16), seed=1, options={"x": 2},
    )
    assert run.request.option("x") == 2
    run = execute("tradeoff", mixed(16), seed=1, options={"x": 2}, x=4)
    # Keyword options win over the mapping.
    assert run.request.option("x") == 4


def test_execution_request_is_read_only_mapping():
    run = execute("ben-or", mixed(8), seed=0, max_phases=4)
    request = run.request
    assert isinstance(request, ExecutionConfig)
    assert request.option("max_phases") == 4
    assert request.option("missing", "default") == "default"
    with pytest.raises(TypeError):
        request.options["max_phases"] = 9


# ---------------------------------------------------------------------------
# ExecutionConfig: one normalization, one axis validation, one JSON form.
def test_config_normalizes_once():
    config = ExecutionConfig("ben-or", [0, 1, 1], options=None)
    assert (config.n, config.inputs) == (3, (0, 1, 1))
    assert config.params == ProtocolParams.practical()
    assert config.options == config.transport_options == {}
    assert execute("ben-or", [0, 1, 1]).request == config
    with pytest.raises(ValueError, match="needs `inputs` or an explicit `n`"):
        ExecutionConfig("trb")


def test_config_payload_round_trips_named_axes_only():
    config = ExecutionConfig(
        "tradeoff", mixed(16), seed=3, options={"x": 4},
        transport="tcp", transport_options={"processes_per_worker": 4},
    )
    payload = json.loads(json.dumps(config.payload()))
    assert payload["transport"] == "tcp"
    assert "execution_model" not in payload and "model_options" not in payload
    assert ExecutionConfig.from_payload(payload) == config
    # The axis is a name: a live object is refused before it can reach
    # a payload, a digest or a core.
    with pytest.raises(ValueError, match="unknown transport <object"):
        ExecutionConfig("ben-or", mixed(5), transport=object())


@pytest.mark.parametrize(
    "seeds", [[np.int64(1)], [np.uint8(1)], [True], np.arange(1, 2)], ids=repr
)
def test_integer_like_seed_runs_the_int_seed(seeds, tmp_path):
    """Seeds are hashed by ``repr``: a config stores ``operator.index`` of
    its seeds, so an integer-like seed runs, records and caches as the
    plain ``int`` it equals."""
    (seed,) = seeds
    config = ExecutionConfig("ben-or", mixed(5), seed=seed, graph_seed=seed)
    assert (type(config.seed), type(config.graph_seed)) == (int, int)
    want = execute("algorithm1", mixed(16), seed=1).metrics
    got = execute("algorithm1", mixed(16), seed=seed).metrics
    assert (got.bits_sent, got.random_bits) == (want.bits_sent, want.random_bits)
    (plain,) = run_campaign(CampaignSpec("seeds", "ben-or", ns=(8,), seeds=[1]))
    spec = CampaignSpec("seeds", "ben-or", ns=(8,), seeds=seeds)
    (cached,) = run_campaign(spec, cache=tmp_path)
    assert json.dumps(cached, sort_keys=True) == json.dumps(plain, sort_keys=True)
    for bad in (1.0, "1"):
        with pytest.raises(TypeError):
            ExecutionConfig("ben-or", mixed(5), seed=bad)


@pytest.mark.parametrize(
    "key,value",
    [("execution_model", "partial-synchrony"), ("model_options", {"gst": 2})],
    ids=["execution_model", "model_options"],
)
def test_config_refuses_a_recipe_of_another_round_model(key, value):
    """What the removed model axis wrote is refused by name, never run
    as lockstep."""
    payload = ExecutionConfig("ben-or", mixed(5)).payload()
    with pytest.raises(ValueError, match=key):
        ExecutionConfig.from_payload({**payload, key: value})


def _campaign_spec(protocol, inputs, **axes):
    return CampaignSpec("axes", protocol, ns=(len(inputs),), **axes)


def _record(protocol, inputs, **axes):
    from repro.replay import record

    return record(ExecutionConfig(protocol, inputs, **axes))


@pytest.fixture
def never_built():
    """A registered protocol whose ``build`` must not be reached."""
    from repro.harness.registry import _REGISTRY

    def build(config):
        raise AssertionError("processes were built before validation")

    spec = ProtocolSpec(name="never-built", summary="test", build=build)
    register_protocol(spec)
    yield spec.name
    _REGISTRY.pop(spec.name, None)


@pytest.mark.parametrize("entry", [execute, _record, _campaign_spec])
@pytest.mark.parametrize(
    "axes,message",
    [
        # The host and the two timeouts were TCP options once, validated
        # by value; they are constants now and refused by name.  Their
        # rows keep the ids they had then, so the test ids stay stable.
        pytest.param(
            {"transport": "tcp", "transport_options": {"host": "example.com"}},
            "transport 'tcp' takes no option 'host'",
            id="axes0-is not a loopback address",
        ),
        ({"transport": "pigeon"}, "unknown transport 'pigeon'"),
        pytest.param(
            {"transport": "tcp", "transport_options": {"link_timeout_s": 0}},
            "transport 'tcp' takes no option 'link_timeout_s'",
            id="axes2-link_timeout_s=0 must be > 0",
        ),
        (
            {"transport_options": {"processes_per_worker": 2}},
            "transport_options requires an explicit",
        ),
        pytest.param(
            {"transport": "tcp", "transport_options": {"connect_timeout_s": 0}},
            "transport 'tcp' takes no option 'connect_timeout_s'",
            id="axes4-connect_timeout_s=0 must be > 0",
        ),
        (
            {"transport": "inprocess", "transport_options": {"workers": 2}},
            "transport 'inprocess' takes no option 'workers'",
        ),
        (
            {"transport": "tcp", "transport_options": {"workers": 2}},
            "transport 'tcp' takes no option 'workers'",
        ),
        (
            {"transport": "tcp", "transport_options": {"processes_per_worker": 0}},
            "processes_per_worker=0",
        ),
        (
            {"transport": "tcp", "transport_options": {"processes_per_worker": 2.5}},
            "processes_per_worker=2.5 must be an int",
        ),
        (
            {"transport": "tcp", "transport_options": {"processes_per_worker": True}},
            "processes_per_worker=True must be an int",
        ),
        (
            {"transport": "tcp", "transport_options": {"processes_per_worker": "4"}},
            "processes_per_worker='4' must be an int",
        ),
    ],
)
def test_axis_options_are_validated_at_entry(
    entry, axes, message, never_built
):
    """Same ValueError from execute, record and CampaignSpec, raised
    before any process (or campaign worker) is built."""
    with pytest.raises(ValueError, match=message):
        entry(never_built, mixed(9), **axes)


# ---------------------------------------------------------------------------
# Every registered protocol returns a ConsensusRun with named fields only —
# the tuple protocol was removed after its deprecation window.
def test_baseline_runners_return_consensus_runs():
    runs = {
        "tradeoff": execute("tradeoff", mixed(16), x=2, seed=3),
        "early-stopping": execute("early-stopping", mixed(16), seed=3),
        "multivalued": execute("multivalued", mixed(16), value_bits=1, seed=3),
        "ben-or": execute("ben-or", mixed(8), t=0, seed=3),
        "phase-king": execute("phase-king", mixed(16), t=2, seed=3),
        "dolev-strong": execute("dolev-strong", mixed(8), t=1, seed=3),
        "trb": execute("trb", n=8, sender=0, value=1, t=1, seed=3),
        "collectors": execute("collectors", n=8, t=0, seed=3),
    }
    for name, run in runs.items():
        assert isinstance(run, ConsensusRun), name
        assert len(run.processes) == run.result.n, name
        # The tuple shims are gone: a ConsensusRun is not iterable or
        # indexable, so stale `result, procs = run` code fails fast.
        with pytest.raises(TypeError):
            iter(run)
        with pytest.raises(TypeError):
            run[0]


def test_trb_indexing_and_decision():
    run = execute(
        "trb", n=16, sender=0, value=9, t=2, adversary=SilenceAdversary([0]),
        seed=7,
    )
    assert run.result.time_to_agreement() >= 1
    assert run.decision in (9, BOTTOM)


def test_run_dolev_strong_agrees_with_manual_metrics():
    run = execute("dolev-strong", mixed(12), t=2, seed=4)
    assert run.decision in (0, 1)
    # t + 1 communication rounds.
    assert run.metrics.rounds == 3


# ---------------------------------------------------------------------------
# Campaign integration: baselines sweep through the registry.
def test_campaign_runs_ben_or_cells():
    spec = CampaignSpec(
        name="harness-ben-or",
        protocol="ben-or",
        ns=[16],
        adversaries=["none", "silence"],
        seeds=[0],
    )
    records = run_campaign(spec)
    assert [r["adversary"] for r in records] == ["none", "silence"]
    for record in records:
        assert record["protocol"] == "ben-or"
        assert record["t"] == 2
        assert record["decision"] in (0, 1)
        assert record["rounds"] >= 1
    assert records[1]["faulty"] == [0, 1]


def test_campaign_runs_trb_cells():
    spec = CampaignSpec(
        name="harness-trb",
        protocol="trb",
        ns=[16],
        adversaries=["silence"],
        seeds=[0],
        options={"sender": 1, "value": 7},
    )
    record = run_campaign(spec)[0]
    assert record["protocol"] == "trb"
    assert record["sender"] == 1
    # Sender 1 is silenced by the adversary, so the BOTTOM delivery is a
    # legal outcome; all processes still agree on it.
    assert record["decision"] in (7, "BOTTOM")
    assert record["delivery_rounds"]

    no_faults = CampaignSpec(
        name="harness-trb-clean",
        protocol="trb",
        ns=[16],
        adversaries=["none"],
        seeds=[0],
        options={"sender": 1, "value": 7},
    )
    assert run_campaign(no_faults)[0]["decision"] == 7


def test_campaign_rejects_non_sweepable_protocol():
    with pytest.raises(ValueError, match="unknown protocol"):
        CampaignSpec(name="x", protocol="collectors")


# ---------------------------------------------------------------------------
# Registering a custom protocol makes it sweepable immediately.
def test_custom_protocol_roundtrip():
    from repro.baselines.phase_king import PhaseKingProcess

    def build(request):
        return (
            [
                PhaseKingProcess(pid, request.n, request.inputs[pid], request.t)
                for pid in range(request.n)
            ],
            request.t,
        )

    name = "test-custom-phase-king"
    spec = ProtocolSpec(
        name=name, summary="test", build=build,
        default_t=lambda n, params: 1,
    )
    register_protocol(spec)
    try:
        assert name in available_protocols(sweepable=True)
        run = execute(name, mixed(8), seed=0)
        assert run.decision in (0, 1)
        campaign = CampaignSpec(
            name="custom", protocol=name, ns=[8], adversaries=["none"],
            seeds=[0],
        )
        record = run_campaign(campaign)[0]
        assert record["protocol"] == name
    finally:
        from repro.harness.registry import _REGISTRY

        _REGISTRY.pop(name, None)
