"""Tests for the repro-consensus CLI."""

import pytest

from repro.cli import main


def test_run_subcommand(capsys):
    code = main(["run", "--n", "36", "--adversary", "silence", "--seed", "1"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "decision" in captured
    assert "comm. bits" in captured


def test_run_unanimous_inputs(capsys):
    code = main(["run", "--n", "36", "--inputs", "1", "--seed", "2"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "decision      : 1" in captured


@pytest.mark.parametrize("inputs", ["5", "abc", "01"])
def test_run_rejects_inputs_outside_mixed_0_1(inputs, capsys):
    """A bad ``--inputs`` is a usage error, not a traceback from the
    engine's input-bit check."""
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--n", "16", "--inputs", inputs])
    assert exit_info.value.code == 2
    assert "--inputs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["campaign", "status", "--ns", "64,abc"],
        ["campaign", "status", "--ns", "0"],
        ["campaign", "status", "--seeds", ","],
        ["campaign", "status", "--adversaries", "bogus"],
        ["campaign", "status", "--capture", "bogus"],
        ["campaign", "run", "--adversaries", "none,"],
        ["campaign", "run", "--jobs", "0"],
        ["run", "--n", "0"],
        # The engine's 0 <= t < n and Algorithm 1's t < n/30, before round 0.
        ["run", "--n", "16", "--t", "-1"],
        ["run", "--n", "16", "--t", "5"],
        ["run", "--n", "16", "--protocol", "dolev-strong", "--t", "16"],
    ],
    ids=" ".join,
)
def test_malformed_grid_flag_is_a_usage_error(argv, capsys):
    """Exit 2 with a usage line, never a traceback: ``campaign status``
    keeps exit 1 to mean "cells missing"."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")


def test_unknown_adversary_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--n", "32", "--adversary", "nonsense"])


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_run_json_output(capsys):
    import json

    code = main(["run", "--n", "33", "--seed", "6", "--json"])
    captured = capsys.readouterr().out
    assert code == 0
    payload = json.loads(captured)
    assert payload["decision"] in (0, 1)
    assert payload["time_to_agreement"] > 0
    assert payload["n"] == 33
    report = payload["report"]
    assert report["metrics"] == payload["metrics"]
    assert set(report["seconds"]) == {
        "compute", "adversary", "delivery", "overhead", "wall"
    }


def test_run_reports_only_a_fallback_that_ran(capsys):
    """``fallback`` is the campaign records' flag: operative processes ran
    Dolev-Strong.  Under ``balance`` at n=144, seed 1, silenced processes
    only wait for the decision broadcast, which is not a fallback."""
    import json

    argv = ["run", "--n", "144", "--adversary", "balance", "--seed", "1"]
    assert main([*argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fallback"] is False
    assert "used_fallback" not in payload
    assert main(argv) == 0
    assert "fallback      : False" in capsys.readouterr().out.splitlines()


def test_run_prints_one_phases_line(capsys):
    assert main(["run", "--n", "16", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    phases = [line for line in lines if line.startswith("phases (s)")]
    assert len(phases) == 1
    assert "compute=" in phases[0] and "wall=" in phases[0]


def test_campaign_run_subcommand(tmp_path, capsys):
    output = tmp_path / "campaign.json"
    argv = [
        "campaign", "run",
        "--ns", "33",
        "--adversaries", "none",
        "--seeds", "0",
        "--cache", str(tmp_path / "cache"),
        "--output", str(output),
    ]
    code = main(argv)
    captured = capsys.readouterr().out
    assert code == 0
    assert output.exists()
    assert "rounds=" in captured
    # Second invocation is served from the cache instead of recomputing.
    code = main(argv)
    captured = capsys.readouterr().out
    assert code == 0
    assert "cache: 1 hits, 0 computed" in captured


def campaign_argv(output, seeds, *extra):
    return [
        "campaign", "run",
        "--name", "cli-resume",
        "--ns", "33",
        "--adversaries", "none,silence",
        "--seeds", seeds,
        "--output", str(output),
        *extra,
    ]


def test_campaign_jobs_and_cache_resume(tmp_path, capsys):
    """A pooled sweep cut short resumes from its --cache: the rerun
    computes only the missing cells and writes what an uninterrupted run
    writes."""
    cache = ["--jobs", "2", "--cache", str(tmp_path / "cache")]
    resumed, uninterrupted = tmp_path / "resumed.json", tmp_path / "full.json"
    assert main(campaign_argv(tmp_path / "cut.json", "0", *cache)) == 0
    assert "cache: 0 hits, 2 computed" in capsys.readouterr().out
    assert main(campaign_argv(resumed, "0,1", *cache)) == 0
    assert "cache: 2 hits, 2 computed" in capsys.readouterr().out
    assert main(campaign_argv(uninterrupted, "0,1")) == 0
    capsys.readouterr()
    assert resumed.read_bytes() == uninterrupted.read_bytes()


def test_campaign_x_option_recorded(tmp_path, capsys):
    import json

    output = tmp_path / "tradeoff.json"
    code = main(
        [
            "campaign", "run",
            "--protocol", "tradeoff",
            "--ns", "33",
            "--adversaries", "none",
            "--seeds", "0",
            "--x", "2",
            "--output", str(output),
        ]
    )
    assert code == 0
    records = json.loads(output.read_text(encoding="utf-8"))
    assert records[0]["x"] == 2
    assert records[0]["options"] == {"x": 2}


def test_campaign_flat_flags_removed(tmp_path, capsys):
    """The one-cycle flat spelling is gone: a subcommand is required."""
    output = tmp_path / "campaign.json"
    with pytest.raises(SystemExit):
        main(
            [
                "campaign",
                "--ns", "33",
                "--adversaries", "none",
                "--seeds", "0",
                "--output", str(output),
            ]
        )
    assert not output.exists()


def test_campaign_run_cold_then_warm_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv_tail = [
        "--name", "cli-cache",
        "--ns", "33",
        "--adversaries", "none,silence",
        "--seeds", "0,1",
        "--jobs", "2",
        "--cache", str(cache),
    ]
    cold_out = tmp_path / "cold.json"
    code = main(["campaign", "run", "--output", str(cold_out), *argv_tail])
    captured = capsys.readouterr().out
    assert code == 0
    assert "cache: 0 hits, 4 computed" in captured

    warm_out = tmp_path / "warm.json"
    code = main(["campaign", "run", "--output", str(warm_out), *argv_tail])
    captured = capsys.readouterr().out
    assert code == 0
    assert "cache: 4 hits, 0 computed, hit rate 1.00" in captured
    # The cached sweep is byte-identical to the computed one.
    assert cold_out.read_bytes() == warm_out.read_bytes()


def test_campaign_status_subcommand(tmp_path, capsys):
    import json

    cache = tmp_path / "cache"
    argv_tail = [
        "--name", "cli-status",
        "--ns", "33",
        "--adversaries", "none,silence",
        "--seeds", "0,1",
        "--cache", str(cache),
    ]
    code = main(["campaign", "status", *argv_tail])
    captured = capsys.readouterr().out
    assert code == 1  # cells are missing
    assert "missing       : 4" in captured

    main(["campaign", "run", "--jobs", "2",
          "--output", str(tmp_path / "out.json"), *argv_tail])
    capsys.readouterr()
    code = main(["campaign", "status", "--json", *argv_tail])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["cache"] == 4
    assert payload["missing"] == 0
    assert payload["missing_cells"] == []
    assert [
        (record["adversary"], record["seed"]) for record in payload["records"]
    ] == [("none", 0), ("none", 1), ("silence", 0), ("silence", 1)]


def test_campaign_status_lists_each_cell_and_never_executes(tmp_path, capsys):
    argv_tail = [
        "--name", "cli-status-cells",
        "--ns", "33",
        "--adversaries", "none",
        "--seeds", "0",
        "--cache", str(tmp_path / "cache"),
    ]
    # Nothing computed yet: nonzero exit, nothing executed or created.
    code = main(["campaign", "status", *argv_tail])
    captured = capsys.readouterr().out
    assert code == 1
    assert "MISSING algorithm1:n33:none:s0" in captured
    assert list(tmp_path.iterdir()) == []

    main(["campaign", "run", "--output", str(tmp_path / "out.json"),
          *argv_tail])
    capsys.readouterr()
    code = main(["campaign", "status", *argv_tail])
    captured = capsys.readouterr().out
    assert code == 0
    assert "cache   algorithm1:n33:none:s0" in captured
    assert "in cache      : 1" in captured
    assert "rounds=" in captured  # the hit records are summarized


def test_campaign_resume_subcommand(tmp_path, capsys):
    """Resuming is ``campaign run --cache`` again; the separate ``resume``
    subcommand is gone (``test_removed_surfaces``)."""
    cache = ["--cache", str(tmp_path / "cache")]
    output = tmp_path / "out.json"
    assert main(campaign_argv(output, "0", *cache)) == 0
    assert "cache: 0 hits, 2 computed" in capsys.readouterr().out
    # Second pass serves the finished cells and computes only the rest.
    assert main(campaign_argv(output, "0,1", *cache)) == 0
    assert "cache: 2 hits, 2 computed" in capsys.readouterr().out
    assert main(campaign_argv(output, "0,1", *cache)) == 0
    assert "cache: 4 hits, 0 computed" in capsys.readouterr().out
