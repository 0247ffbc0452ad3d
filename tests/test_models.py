"""Tests for the round-model layer: registry, equivalence, deferral.

Three contracts pin the model axis down:

* **Registry** — models resolve by instance > name > lockstep (an
  ambient ``REPRO_EXECUTION_MODEL`` is ignored everywhere), and every
  model round-trips through ``options_payload``.
* **Cross-model equivalence** — ``PartialSynchronyModel`` in its
  lockstep-equivalent regime (``timeout=None``; zero-variance latency /
  ``gst=0``) produces byte-identical result fingerprints to
  ``LockstepModel`` for every registered protocol, and the committed
  golden recipe replays under both models.
* **Deferral semantics** — with a finite ``timeout``, slow copies cross
  round boundaries, the conservation invariant holds via the in-flight
  delta, late copies to terminated processes count as losses, and
  recorded partial-synchrony executions replay to identical fingerprints.
"""

import json

import pytest

from repro.adversary import RandomOmissionAdversary
from repro.harness import available_protocols, execute
from repro.replay import (
    InvariantObserver,
    load_recipe,
    record,
    recipe_from_payload,
    recipe_payload,
    replay,
)
from repro.runtime import (
    LockstepModel,
    PartialSynchronyModel,
    ProcessEnv,
    RoundObserver,
    SyncNetwork,
    SyncProcess,
    available_models,
    create_model,
    resolve_model,
    result_to_dict,
)

from .test_replay import GOLDEN

MODEL_ENV_VAR = "REPRO_EXECUTION_MODEL"


def mixed(n):
    return [pid % 2 for pid in range(n)]


def fingerprint(run):
    return json.dumps(result_to_dict(run.result), sort_keys=True)


# ---------------------------------------------------------------------------
# Registry and resolution.
class TestModelRegistry:
    def test_available_models(self):
        assert available_models() == ("lockstep", "partial-synchrony")

    def test_create_model_by_name(self):
        assert isinstance(create_model("lockstep"), LockstepModel)
        model = create_model("partial-synchrony", {"max_latency": 7})
        assert isinstance(model, PartialSynchronyModel)
        assert model.max_latency == 7

    def test_create_model_unknown_name(self):
        with pytest.raises(ValueError, match="unknown execution model"):
            create_model("bounded-asynchrony")

    def test_options_payload_round_trips(self):
        model = PartialSynchronyModel(
            min_latency=2, max_latency=5, gst=9, timeout=3
        )
        clone = create_model(model.name, model.options_payload())
        assert clone.options_payload() == model.options_payload()
        assert create_model("lockstep").options_payload() == {}

    def test_resolve_default_is_lockstep(self, session_default_model):
        # "lockstep" unless this session runs under --execution-model.
        assert resolve_model(None).name == session_default_model
        assert isinstance(resolve_model("lockstep"), LockstepModel)

    @pytest.mark.parametrize("ambient", ["partial-synchrony", "warp-speed"])
    def test_ambient_environment_is_ignored(
        self, monkeypatch, session_default_model, ambient
    ):
        """The removed ``REPRO_EXECUTION_MODEL`` fallback stays removed:
        neither a valid nor an invalid value reaches ``execute``,
        ``record``, or ``run_campaign`` worker processes — which is what
        lets a campaign cell with ``model=None`` be digested as "default"
        whatever environment its worker inherits."""
        from repro.analysis.campaign import CampaignSpec, run_campaign

        spec = CampaignSpec(
            name="ambient", protocol="phase-king", ns=[9],
            adversaries=["none"], seeds=[0, 1],
        )
        clean = run_campaign(spec, jobs=2)
        monkeypatch.setenv(MODEL_ENV_VAR, ambient)

        class ModelSpy(RoundObserver):
            def on_run_start(self, network):
                self.model = network.model.name

        spy = ModelSpy()
        execute("phase-king", mixed(9), t=2, seed=5, observers=[spy])
        assert spy.model == session_default_model
        recorded = record("phase-king", mixed(9), t=2, seed=5)
        assert recorded.recipe.config.model == session_default_model
        assert run_campaign(spec, jobs=2) == clean

    def test_resolve_instance_passthrough(self):
        model = PartialSynchronyModel(timeout=2)
        assert resolve_model(model) is model

    def test_resolve_rejects_options_with_instance(self):
        with pytest.raises(ValueError, match="model_options"):
            resolve_model(PartialSynchronyModel(), {"gst": 1})


class TestPartialSynchronyValidation:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"min_latency": 0}, "min_latency"),
            ({"min_latency": 3, "max_latency": 2}, "max_latency"),
            ({"gst": -1}, "gst"),
            ({"timeout": 0}, "timeout"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PartialSynchronyModel(**kwargs)


# ---------------------------------------------------------------------------
# Cross-model equivalence: every registered protocol, byte-identical
# counters between lockstep and the lockstep-equivalent partial-synchrony
# regimes.
EQUIVALENCE_CASES = {
    "algorithm1": {"inputs": mixed(36)},
    "tradeoff": {"inputs": mixed(36)},
    "early-stopping": {"inputs": mixed(24)},
    "multivalued": {"inputs": mixed(16)},
    "ben-or": {"inputs": mixed(9), "t": 1},
    "phase-king": {"inputs": mixed(13), "t": 3},
    "dolev-strong": {"inputs": mixed(9), "t": 2},
    "trb": {"n": 8},
    "collectors": {"n": 8},
}

BUILTIN_PROTOCOLS = frozenset(
    {
        "algorithm1",
        "tradeoff",
        "early-stopping",
        "multivalued",
        "ben-or",
        "phase-king",
        "dolev-strong",
        "trb",
        "collectors",
    }
)


def run_case(protocol, model=None, model_options=None, adversary=None):
    case = dict(EQUIVALENCE_CASES[protocol])
    inputs = case.pop("inputs", None)
    return execute(
        protocol,
        inputs,
        seed=7,
        adversary=adversary,
        model=model,
        model_options=model_options,
        **case,
    )


class TestCrossModelEquivalence:
    def test_cases_cover_builtin_registry(self):
        assert BUILTIN_PROTOCOLS <= set(available_protocols())
        assert set(EQUIVALENCE_CASES) == BUILTIN_PROTOCOLS

    @pytest.mark.parametrize("protocol", sorted(EQUIVALENCE_CASES))
    def test_partial_synchrony_matches_lockstep(self, protocol):
        baseline = fingerprint(run_case(protocol, model="lockstep"))
        # Default options: timeout=None waits out the slowest copy.
        assert fingerprint(
            run_case(protocol, model="partial-synchrony")
        ) == baseline
        # The timely network: zero latency variance from time zero.
        assert fingerprint(
            run_case(
                protocol,
                model="partial-synchrony",
                model_options={"min_latency": 1, "max_latency": 1, "gst": 0},
            )
        ) == baseline

    @pytest.mark.parametrize("protocol", ["algorithm1", "phase-king"])
    def test_equivalence_under_adversary(self, protocol):
        runs = [
            run_case(
                protocol,
                model=name,
                adversary=RandomOmissionAdversary(0.4, seed=5),
            )
            for name in ("lockstep", "partial-synchrony")
        ]
        assert fingerprint(runs[0]) == fingerprint(runs[1])

    def test_replay_model_override_replaces_the_options_too(self):
        """An axis is a (name, options) pair: replaying a PS recording
        under lockstep must not hand lockstep the PS constructor options
        (it used to die with a raw ``TypeError``)."""
        recorded = record(
            "ben-or", mixed(9), t=1, seed=3,
            adversary=RandomOmissionAdversary(0.3, seed=2),
            model="partial-synchrony", model_options={"max_latency": 3},
        )
        report = replay(recorded.recipe, model="lockstep")
        assert report.ok, report.summary()
        assert report.run.request.model == "lockstep"
        assert report.run.request.model_options == {}
        assert replay(recorded.recipe).run.request.model_options == {
            "max_latency": 3
        }

    def test_model_instance_axis(self):
        baseline = fingerprint(run_case("phase-king", model="lockstep"))
        run = run_case(
            "phase-king", model=PartialSynchronyModel(max_latency=4)
        )
        assert fingerprint(run) == baseline


class TestGoldenAcrossModels:
    def test_golden_recipe_implies_lockstep(self):
        assert load_recipe(GOLDEN).config.model == "lockstep"

    def test_golden_replays_under_lockstep(self):
        report = replay(load_recipe(GOLDEN), model="lockstep")
        assert report.ok, report.summary()

    def test_golden_replays_under_partial_synchrony(self):
        report = replay(load_recipe(GOLDEN), model="partial-synchrony")
        assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# Recording and replaying on the partial-synchrony model.
class TestPartialSynchronyRecordReplay:
    def test_record_stores_model_and_replays(self):
        recorded = record(
            "ben-or",
            mixed(9),
            t=1,
            adversary=RandomOmissionAdversary(0.3, seed=2),
            seed=11,
            model="partial-synchrony",
        )
        assert not recorded.failed
        assert recorded.recipe.config.model == "partial-synchrony"
        report = replay(recorded.recipe)
        assert report.ok, report.summary()

    def test_replay_honours_recipe_not_environment(self, monkeypatch):
        recorded = record(
            "phase-king", mixed(13), t=3, seed=5, model="partial-synchrony"
        )
        monkeypatch.setenv(MODEL_ENV_VAR, "lockstep")
        assert replay(recorded.recipe).ok

    def test_finite_timeout_replays_to_identical_fingerprint(self):
        options = {"min_latency": 1, "max_latency": 3, "gst": 10**9,
                   "timeout": 1}
        recorded = record(
            "phase-king",
            mixed(13),
            t=3,
            adversary=RandomOmissionAdversary(0.3, seed=4),
            seed=9,
            model="partial-synchrony",
            model_options=options,
            invariants=True,
        )
        assert not recorded.failed
        assert recorded.recipe.config.model_options == options
        report = replay(recorded.recipe)
        assert report.ok, report.summary()
        assert json.dumps(
            result_to_dict(report.run.result), sort_keys=True
        ) == json.dumps(dict(recorded.recipe.expected), sort_keys=True)

    def test_recipe_payload_round_trip(self):
        recorded = record(
            "ben-or", mixed(9), t=1, seed=3, model="partial-synchrony",
            model_options={"timeout": 2, "gst": 10**9},
        )
        payload = recipe_payload(recorded.recipe)
        assert payload["execution_model"] == "partial-synchrony"
        assert recipe_from_payload(payload) == recorded.recipe

    def test_legacy_payload_defaults_to_lockstep(self):
        recorded = record("ben-or", mixed(9), t=1, seed=3)
        payload = recipe_payload(recorded.recipe)
        del payload["execution_model"]
        del payload["model_options"]
        recipe = recipe_from_payload(payload)
        assert recipe.config.model == "lockstep"
        assert recipe.config.model_options == {}
        assert replay(recipe).ok


# ---------------------------------------------------------------------------
# Deferral semantics under a finite timeout.
class FloodAndCount(SyncProcess):
    """Broadcasts for a few rounds, then decides how many copies it saw.

    Under any latency regime where every copy eventually arrives, all
    processes see the same total — so agreement doubles as an
    every-message-arrived check.
    """

    def __init__(self, pid, n, rounds=3, drain=4):
        super().__init__(pid, n)
        self.rounds = rounds
        self.drain = drain

    def program(self, env: ProcessEnv):
        seen = 0
        for _ in range(self.rounds):
            env.broadcast("ping")
            inbox = yield
            seen += len(inbox)
        for _ in range(self.drain):
            inbox = yield
            seen += len(inbox)
        env.decide(seen)
        return None


class StopsEarly(SyncProcess):
    """Terminates before the slow copies addressed to it can arrive."""

    def program(self, env: ProcessEnv):
        env.broadcast("hello")
        yield
        env.decide(0)
        return None


class TalksToEveryone(SyncProcess):
    def program(self, env: ProcessEnv):
        env.broadcast("hello")
        yield
        env.broadcast("world")
        yield
        yield
        yield
        env.decide(0)
        return None


class InFlightProbe(RoundObserver):
    def __init__(self):
        self.samples = []

    def on_round_end(self, round_no, network):
        self.samples.append(network.in_flight_messages)


class TestFiniteTimeoutDeferral:
    def make_network(self, processes, model, observers=()):
        return SyncNetwork(processes, model=model, observers=observers)

    def test_slow_copies_cross_round_boundaries(self):
        n = 5
        model = PartialSynchronyModel(
            min_latency=2, max_latency=2, gst=10**9, timeout=1
        )
        probe = InFlightProbe()
        network = self.make_network(
            [FloodAndCount(pid, n) for pid in range(n)],
            model,
            observers=[InvariantObserver(), probe],
        )
        result = network.run()
        # Every copy arrived one round late; nobody lost anything, so all
        # processes agree on the full 3 broadcasts x (n-1) copies each.
        assert result.agreement_value() == 3 * (n - 1)
        assert max(probe.samples) == n * (n - 1)
        assert probe.samples[-1] == 0
        assert result.metrics.messages_delivered == 3 * n * (n - 1)
        assert model.time == sum(model.round_durations)
        assert set(model.round_durations) == {1}

    def test_late_copy_to_terminated_process_is_lost(self):
        n = 4
        model = PartialSynchronyModel(
            min_latency=3, max_latency=3, gst=10**9, timeout=1
        )
        processes = [StopsEarly(0, n)] + [
            TalksToEveryone(pid, n) for pid in range(1, n)
        ]
        network = self.make_network(
            processes, model, observers=[InvariantObserver()]
        )
        result = network.run()
        # Process 0 decides in round 1 and terminates; every copy takes 3
        # time units against a 1-unit deadline, so the copies addressed to
        # it from round 1 onwards arrive after it is gone.
        assert result.metrics.messages_lost > 0
        assert (
            result.metrics.messages_sent
            == result.metrics.messages_delivered
            + result.metrics.messages_lost
        )

    def test_deferral_is_deterministic(self):
        def run_once():
            model = PartialSynchronyModel(
                min_latency=1, max_latency=4, gst=6, timeout=2
            )
            network = self.make_network(
                [FloodAndCount(pid, 5, rounds=4, drain=6) for pid in range(5)],
                model,
                observers=[InvariantObserver()],
            )
            return json.dumps(
                result_to_dict(network.run()), sort_keys=True
            )

        assert run_once() == run_once()

    def test_latency_draws_never_touch_process_randomness(self):
        n = 5
        runs = []
        for model in (
            LockstepModel(),
            PartialSynchronyModel(min_latency=1, max_latency=4, gst=10**9),
        ):
            network = self.make_network(
                [FloodAndCount(pid, n) for pid in range(n)], model
            )
            runs.append(network.run())
        assert (
            runs[0].randomness_per_process == runs[1].randomness_per_process
        )
        assert runs[0].metrics.random_calls == runs[1].metrics.random_calls
        assert runs[0].metrics.random_bits == runs[1].metrics.random_bits


# ---------------------------------------------------------------------------
# Campaign and CLI surfaces of the model axis.
class TestModelAxisSurfaces:
    def test_campaign_model_is_part_of_cell_identity(self, tmp_path):
        from repro.analysis.campaign import CampaignSpec, run_campaign
        from repro.fabric import CellId

        spec = CampaignSpec(
            name="model-axis",
            protocol="phase-king",
            ns=[9],
            adversaries=["none"],
            seeds=[0],
            model="partial-synchrony",
        )
        records = run_campaign(spec, journal=tmp_path / "journal.jsonl")
        assert records[0]["model"] == "partial-synchrony"
        assert CellId.from_record(records[0]) == spec.cell_id(9, "none", 0)
        lockstep = CampaignSpec(
            name="model-axis",
            protocol="phase-king",
            ns=[9],
            adversaries=["none"],
            seeds=[0],
        )
        # A model-pinned record can never satisfy a legacy (model-free)
        # spec's cell, and vice versa.
        assert CellId.from_record(records[0]) != lockstep.cell_id(9, "none", 0)

    def test_campaign_rejects_unknown_model(self):
        from repro.analysis.campaign import CampaignSpec

        with pytest.raises(ValueError, match="model"):
            CampaignSpec(
                name="x", protocol="phase-king", model="warp-speed"
            )

    def test_cli_run_model_flag(self, capsys):
        from repro.cli import main

        assert main(
            [
                "run", "--protocol", "phase-king", "--n", "9",
                "--inputs", "mixed", "--model", "partial-synchrony",
            ]
        ) == 0
        assert "decision" in capsys.readouterr().out

    def test_cli_replay_model_override(self, tmp_path, capsys):
        from repro.cli import main
        from repro.replay import save_recipe

        recorded = record("phase-king", mixed(9), t=2, seed=1)
        path = save_recipe(recorded.recipe, tmp_path / "r.json")
        assert main(
            ["replay", str(path), "--model", "partial-synchrony"]
        ) == 0
        assert "replay matches" in capsys.readouterr().out
