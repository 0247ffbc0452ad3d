"""Tests for repro.replay: recording, invariants, deterministic replay.

The core contract: an execution is a deterministic function of (protocol,
seeds, adversary action sequence), so a recorded recipe replays to a
byte-identical result fingerprint — over either delivery path — and a
recorded *failure* replays to the same invariant violation.
"""

import json
from pathlib import Path

import pytest

from repro.adversary import (
    GALLERY,
    RandomOmissionAdversary,
    VoteBalancingAdversary,
)
from repro.harness import ExecutionConfig, run_config
from repro.replay import (
    ExecutionRecipe,
    InvariantObserver,
    InvariantViolation,
    RecordedAction,
    check_consensus_protocol,
    load_recipe,
    record,
    replay,
    save_recipe,
)
from repro.replay.recipe import recipe_from_payload, recipe_payload
from repro.runtime import (
    SCHEMA_VERSION,
    Adversary,
    AdversaryAction,
    ProcessEnv,
    SyncNetwork,
    SyncProcess,
    payload_bits,
    result_to_dict,
)

from .delivery_oracle import pin_object_loop

GOLDEN = Path(__file__).parent / "data" / "golden-ben-or.json"

# Engine seeds are pinned per cell to recorded *clean* runs: ben-or is a
# randomized baseline whose agreement can genuinely break under the vote
# balancer at some seeds (exactly what the battery exists to catch), and
# this matrix is about replay fidelity of passing executions.
MATRIX = [
    ("algorithm1", 64, None, "random", 23),
    ("algorithm1", 64, None, "balance", 23),
    ("ben-or", 16, 2, "random", 23),
    ("ben-or", 16, 2, "balance", 3),
    ("phase-king", 13, 3, "random", 23),
    ("phase-king", 13, 3, "balance", 23),
]


def make_adversary(kind, seed):
    if kind == "random":
        return RandomOmissionAdversary(0.5, seed=seed)
    return VoteBalancingAdversary(seed=seed)


class TestRecordReplayMatrix:
    @pytest.mark.parametrize("protocol,n,t,adversary,seed", MATRIX)
    def test_replay_is_byte_identical(self, protocol, n, t, adversary, seed):
        inputs = [pid % 2 for pid in range(n)]
        recorded = record(
            ExecutionConfig(protocol, inputs, t=t, seed=seed),
            make_adversary(adversary, seed=5),
        )
        assert not recorded.failed
        report = replay(recorded.recipe)
        assert report.ok, report.summary()
        # Byte-identical, not merely "same decision": the full serialized
        # result (every metrics counter, decision round, faulty pid, ...)
        # must match the recording exactly.
        assert json.dumps(
            result_to_dict(report.run.result), sort_keys=True
        ) == json.dumps(dict(recorded.recipe.expected), sort_keys=True)

    @pytest.mark.parametrize("protocol,n,t,adversary,seed", MATRIX[:3])
    def test_replay_across_engine_send_paths(
        self, protocol, n, t, adversary, seed, monkeypatch
    ):
        """Omit indices address the flat per-copy order the columnar plan
        and the object-loop oracle (``tests/delivery_oracle.py``) share,
        so a schedule recorded on either replays identically on the
        other."""
        inputs = [pid % 2 for pid in range(n)]

        def recorded():
            return record(
                ExecutionConfig(protocol, inputs, t=t, seed=seed),
                make_adversary(adversary, seed=5),
            )

        on_columnar = recorded()
        with monkeypatch.context() as patch:
            pin_object_loop(patch)
            assert replay(on_columnar.recipe).ok
            on_objects = recorded()
        assert on_objects.recipe.expected == on_columnar.recipe.expected
        assert replay(on_objects.recipe).ok

    def test_adversary_that_writes_through_its_view_does_not_replay(self):
        """Replay is the purity test: a recipe holds what the adversary
        *returned*, so state it changed behind the engine's back is not in
        it, and the replay disagrees with the recording."""

        class WritesThroughItsView(Adversary):
            def act(self, view):
                for process in view.processes:
                    process.b = 1
                return AdversaryAction()

        recorded = record(
            ExecutionConfig("ben-or", [pid % 2 for pid in range(16)], t=2),
            WritesThroughItsView(),
        )
        assert not recorded.failed
        report = replay(recorded.recipe)
        assert report.ok is False
        assert report.mismatches

    def test_recipe_file_round_trip(self, tmp_path):
        recorded = record(
            ExecutionConfig("ben-or", [0, 1, 1, 0, 1, 0, 1], seed=4),
            RandomOmissionAdversary(0.3, seed=1),
        )
        path = save_recipe(recorded.recipe, tmp_path / "r.json")
        assert load_recipe(path) == recorded.recipe
        assert replay(load_recipe(path)).ok


class TestGoldenRecipe:
    """Cross-version determinism: the committed artifact was recorded once
    (CPython 3.11) and must replay byte-identically on every CI
    interpreter — the Mersenne Twister and the engine's seed derivation
    are stable across 3.11/3.12.  "Fast path" is the engine's columnar
    plan; "legacy path" is the reference object loop
    (``tests/delivery_oracle.py``; ``tests/test_columnar.py`` covers the
    remaining grid)."""

    def test_golden_replays_on_fast_path(self):
        report = replay(load_recipe(GOLDEN))
        assert report.ok, report.summary()

    def test_golden_replays_on_legacy_path(self, monkeypatch):
        pin_object_loop(monkeypatch)
        report = replay(load_recipe(GOLDEN))
        assert report.ok, report.summary()

    def test_legacy_engine_keys_are_accepted_and_ignored(self):
        """Replay portability: recipes used to pin ``multicast`` /
        ``columnar``.  Old payloads still load (the golden artifact
        carries ``"multicast": true``), pin nothing and replay; new
        payloads stop writing the keys; schema handling is untouched."""
        payload = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert payload["multicast"] is True
        pinned = dict(payload, multicast=False, columnar=True)
        recipe = recipe_from_payload(pinned)
        assert recipe == load_recipe(GOLDEN)
        written = recipe_payload(recipe)
        assert "multicast" not in written and "columnar" not in written
        assert written["schema"] == payload["schema"] == SCHEMA_VERSION
        with pytest.raises(ValueError, match="recipe schema"):
            recipe_from_payload(dict(pinned, schema=SCHEMA_VERSION + 1))
        assert replay(recipe).ok


class SplitDecider(SyncProcess):
    """Planted agreement bug: everyone decides its own parity."""

    def program(self, env: ProcessEnv):
        env.broadcast("x")
        yield
        env.decide(self.pid % 2)
        env.broadcast("y")
        yield
        return None


class AlienDecider(SyncProcess):
    """Planted validity bug: decides a value outside the input domain."""

    def program(self, env: ProcessEnv):
        env.broadcast("x")
        yield
        env.decide(7)
        env.broadcast("y")
        yield
        return None


class Undersizer(SyncProcess):
    """Planted metering bug: pid 2 understates a presized send in round 1."""

    payload = (4, ((1, 7, 8),))

    def program(self, env: ProcessEnv):
        size = payload_bits(self.payload)
        env.send_many((0, 1), self.payload, size=size)
        yield
        env.send_many((0, 1), self.payload, size=size - (self.pid == 2))
        yield
        env.decide(0)
        return None


class TestInvariantObserver:
    def test_wrong_presized_send_trips_sizing_at_its_round(self):
        network = SyncNetwork(
            [Undersizer(pid, 4) for pid in range(4)],
            observers=[InvariantObserver()],
        )
        with pytest.raises(InvariantViolation) as excinfo:
            network.run()
        assert excinfo.value.invariant == "sizing"
        assert excinfo.value.round == 1
        assert "process 2" in excinfo.value.detail
        assert repr(Undersizer.payload) in excinfo.value.detail

    def test_drifting_pack_size_trips_in_the_first_spreading_round(
        self, monkeypatch
    ):
        """Algorithm 3 states its packs' sizes; one bit of drift in what it
        adds up fails the run where the first pack is queued, while the
        untouched run passes every round's check."""
        from repro.core import spreading
        from repro.harness import execute

        inputs = [pid % 2 for pid in range(36)]
        execute("algorithm1", inputs, seed=5, observers=[InvariantObserver(inputs)])
        monkeypatch.setattr(
            spreading, "_HEARTBEAT_BITS", spreading._HEARTBEAT_BITS + 1
        )
        with pytest.raises(InvariantViolation) as excinfo:
            execute(
                "algorithm1", inputs, seed=5,
                observers=[InvariantObserver(inputs)],
            )
        assert excinfo.value.invariant == "sizing"
        # n=36: six groups of six, a three-stage bag tree, three rounds each.
        assert excinfo.value.round == 9

    def test_agreement_trips_with_round_number(self):
        processes = [SplitDecider(pid, 4) for pid in range(4)]
        network = SyncNetwork(processes, observers=[InvariantObserver()])
        with pytest.raises(InvariantViolation) as excinfo:
            network.run()
        assert excinfo.value.invariant == "agreement"
        assert excinfo.value.round == 1

    def test_validity_trips(self):
        processes = [AlienDecider(pid, 4) for pid in range(4)]
        network = SyncNetwork(
            processes, observers=[InvariantObserver(inputs=[0, 1, 0, 1])]
        )
        with pytest.raises(InvariantViolation) as excinfo:
            network.run()
        assert excinfo.value.invariant == "validity"

    def test_clean_run_unaffected(self):
        config = ExecutionConfig(
            "phase-king", [pid % 2 for pid in range(13)], t=3, seed=8
        )
        recorded = record(config, RandomOmissionAdversary(0.5, seed=8))
        assert not recorded.failed
        bare = run_config(config, RandomOmissionAdversary(0.5, seed=8))
        # Observers never perturb the execution.
        assert recorded.recipe.expected == json.loads(
            json.dumps(result_to_dict(bare.result), sort_keys=True)
        )

    def test_payload_shape(self):
        violation = InvariantViolation("agreement", 3, "split decisions")
        assert violation.payload() == {
            "invariant": "agreement",
            "round": 3,
            "detail": "split decisions",
        }
        assert isinstance(violation, AssertionError)


class TestRecordedFailures:
    def test_failing_run_folds_into_recipe(self):
        processes_n = 4

        def build(request):
            return (
                [SplitDecider(pid, processes_n) for pid in range(processes_n)],
                0,
            )

        from repro.harness import ProtocolSpec, register_protocol

        register_protocol(
            ProtocolSpec(
                name="split-decider",
                summary="test-only planted agreement bug",
                build=build,
                default_max_rounds=5,
                sweepable=False,
                uses_inputs=False,
            ),
            replace=True,
        )
        recorded = record(ExecutionConfig("split-decider", n=processes_n))
        assert recorded.failed
        assert recorded.recipe.failing
        assert recorded.recipe.expected is None
        assert recorded.recipe.expected_failure["invariant"] == "agreement"
        report = replay(recorded.recipe)
        assert report.reproduced_failure
        assert report.ok

    def test_run_checked_saves_replayable_recipe(self, tmp_path):
        """The battery records, shrinks and saves a failing cell (the job
        of the removed ``run_checked``); an input-free protocol runs one
        cell per adversary and seed."""
        from repro.harness import ProtocolSpec, register_protocol

        def build(request):
            return [SplitDecider(pid, 4) for pid in range(4)], 0

        register_protocol(
            ProtocolSpec(
                name="split-decider",
                summary="test-only planted agreement bug",
                build=build,
                default_max_rounds=5,
                sweepable=False,
                uses_inputs=False,
            ),
            replace=True,
        )
        (failing,) = check_consensus_protocol(
            ExecutionConfig("split-decider", n=4), {"none": GALLERY["none"]},
            seeds=(0,), save_dir=tmp_path,
        )
        assert failing.expected_failure["invariant"] == "agreement"
        (saved,) = tmp_path.glob("*.json")
        assert saved.name.startswith("split-decider-n-only-none-seed0-")
        assert load_recipe(saved) == failing
        assert replay(failing).reproduced_failure


class TestRecipeDataclass:
    def test_totals_and_with_actions(self):
        recipe = ExecutionRecipe(
            config=ExecutionConfig("ben-or", n=5, seed=1),
            actions=(
                RecordedAction(round=0, corrupt=(1, 2), omit=(0, 1, 2)),
                RecordedAction(round=2, omit=(4,)),
            ),
        )
        assert recipe.total_corruptions() == 2
        assert recipe.total_omissions() == 4
        assert not recipe.failing
        trimmed = recipe.with_actions(recipe.actions[:1])
        assert trimmed.total_omissions() == 3
        assert trimmed.config == recipe.config


class TestReplayCLI:
    def test_cli_replay_passing_recipe(self, tmp_path, capsys):
        from repro.cli import main

        recorded = record(
            ExecutionConfig("ben-or", [0, 1, 1, 0, 1, 0, 1], seed=4),
            RandomOmissionAdversary(0.3, seed=1),
        )
        path = save_recipe(recorded.recipe, tmp_path / "r.json")
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "replay matches recorded fingerprint" in out

    def test_cli_replay_detects_tampering(self, tmp_path, capsys):
        from repro.cli import main

        recorded = record(
            ExecutionConfig("ben-or", [0, 1, 1, 0, 1, 0, 1], seed=4),
            RandomOmissionAdversary(0.3, seed=1),
        )
        data = json.loads(
            save_recipe(recorded.recipe, tmp_path / "r.json").read_text()
        )
        data["expected"]["metrics"]["messages_sent"] += 1
        (tmp_path / "r.json").write_text(json.dumps(data))
        assert main(["replay", str(tmp_path / "r.json")]) == 1
        assert "messages_sent" in capsys.readouterr().out


class TestCampaignFailureRecording:
    def test_failing_cell_saves_recipe_and_sweep_continues(self, tmp_path):
        from repro.analysis.campaign import (
            CampaignSpec,
            run_campaign,
            summarize_campaign,
        )

        spec = CampaignSpec(
            name="replay-smoke",
            protocol="ben-or",
            ns=[9],
            adversaries=["random"],
            seeds=[0, 1],
        )
        records = run_campaign(spec, record_failures=tmp_path)
        assert len(records) == 2
        failed = [rec for rec in records if rec.get("failed")]
        for rec in failed:
            assert Path(rec["recipe"]).exists()
        # Healthy cells keep their usual record shape and still aggregate.
        healthy = [rec for rec in records if not rec.get("failed")]
        summary = summarize_campaign(records)
        if healthy:
            assert summary[0]["runs"] == len(healthy)
        else:
            assert summary == []
