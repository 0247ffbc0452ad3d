"""Tests for JSON serialization of results and run reports."""

import json

import pytest

from repro.adversary import SilenceAdversary
from repro.core import build_processes, run_consensus
from repro.runtime import (
    SCHEMA_VERSION,
    SyncNetwork,
    load_result,
    metrics_from_dict,
    metrics_to_dict,
    result_from_dict,
    result_to_dict,
    save_result,
)


def sample_result():
    return run_consensus(
        [pid % 2 for pid in range(36)],
        t=1,
        adversary=SilenceAdversary([0]),
        seed=1,
    ).result


class TestMetricsRoundTrip:
    def test_round_trip_preserves_everything(self):
        metrics = sample_result().metrics
        rebuilt = metrics_from_dict(metrics_to_dict(metrics))
        assert rebuilt.summary() == metrics.summary()
        assert rebuilt.messages_per_round == metrics.messages_per_round
        assert rebuilt.bits_per_round == metrics.bits_per_round


class TestResultRoundTrip:
    def test_dict_round_trip(self):
        result = sample_result()
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.n == result.n
        assert rebuilt.decisions == result.decisions
        assert rebuilt.faulty == result.faulty
        assert rebuilt.decision_rounds == result.decision_rounds
        assert rebuilt.randomness_per_process == result.randomness_per_process
        assert rebuilt.agreement_value() == result.agreement_value()
        assert rebuilt.time_to_agreement() == result.time_to_agreement()

    def test_json_serializable(self):
        payload = json.dumps(result_to_dict(sample_result()))
        assert "decisions" in payload

    def test_file_round_trip(self, tmp_path):
        result = sample_result()
        path = tmp_path / "result.json"
        save_result(result, path)
        rebuilt = load_result(path)
        assert rebuilt.agreement_value() == result.agreement_value()
        assert rebuilt.metrics.bits_sent == result.metrics.bits_sent

    def test_version_checked(self):
        data = result_to_dict(sample_result())
        data["schema"] = 999
        with pytest.raises(ValueError, match="schema version 999"):
            result_from_dict(data)

    def test_untagged_payload_rejected(self):
        data = result_to_dict(sample_result())
        del data["schema"]
        with pytest.raises(ValueError, match="schema version None"):
            result_from_dict(data)

    def test_legacy_format_version_accepted(self):
        """Files written before the ``schema`` tag carried
        ``format_version: 1`` and must still load."""
        result = sample_result()
        data = result_to_dict(result)
        del data["schema"]
        data["metrics"].pop("schema")
        data["format_version"] = 1
        rebuilt = result_from_dict(data)
        assert rebuilt.agreement_value() == result.agreement_value()

    def test_metrics_schema_checked(self):
        data = metrics_to_dict(sample_result().metrics)
        data["schema"] = 999
        with pytest.raises(ValueError, match="metrics schema"):
            metrics_from_dict(data)


class TestRecipeSerialization:
    def test_round_trip_through_runtime_wrappers(self):
        """The recipe payload is ``repro.replay``'s; ``repro.runtime`` no
        longer wraps it (``test_removed_surfaces``)."""
        from repro.harness import ExecutionConfig
        from repro.replay import (
            ExecutionRecipe,
            RecordedAction,
            recipe_from_payload,
            recipe_payload,
        )

        recipe = ExecutionRecipe(
            config=ExecutionConfig(
                "ben-or", (0, 1, 1, 0, 1, 0, 1), t=1, seed=3
            ),
            actions=(RecordedAction(round=0, corrupt=(2,), omit=(0, 5)),),
            note="unit",
        )
        payload = json.loads(json.dumps(recipe_payload(recipe)))
        assert payload["schema"] == 2
        assert payload["kind"] == "execution-recipe"
        rebuilt = recipe_from_payload(payload)
        assert rebuilt == recipe

    def test_unknown_schema_rejected(self):
        from repro.replay import recipe_from_payload

        with pytest.raises(ValueError, match="recipe schema"):
            recipe_from_payload({"schema": 999, "kind": "execution-recipe"})

    def test_non_recipe_payload_rejected(self):
        from repro.replay import recipe_from_payload

        with pytest.raises(ValueError, match="not an execution recipe"):
            recipe_from_payload(result_to_dict(sample_result()))


class TestReportSerialization:
    def test_report_to_dict_json_safe(self):
        processes = build_processes([1] * 33, t=1)
        network = SyncNetwork(
            processes, adversary=SilenceAdversary([0]), t=1, seed=2
        )
        result = network.run()
        data = json.loads(json.dumps(result.report.to_dict()))
        assert data["schema"] == SCHEMA_VERSION
        assert data["metrics"] == metrics_to_dict(result.metrics)
        assert data["corruption_rounds"] == {"0": 0}
        assert len(data["omitted_per_round"]) == result.rounds
        assert set(data["seconds"]) == {
            "compute", "adversary", "delivery", "overhead", "wall"
        }
        # The result's own JSON does not carry the report.
        assert "report" not in result_to_dict(result)
        assert result_from_dict(result_to_dict(result)).report is None
