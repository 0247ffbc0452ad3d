"""The experiment lock: specs, committed results and EXPERIMENTS.md agree.

Everything but the last three tests reads committed files and executes
nothing; the ``report --only`` tests run the sub-second E-TRB spec in a
temporary working directory.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.analysis import report
from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent
SPECS = report.load_specs(ROOT / "experiments")
FAST = "E-TRB"


def committed(experiment_id):
    path = report.result_path(ROOT / "experiments", experiment_id)
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_spec_names_a_measure_and_is_its_file():
    assert len(SPECS) >= 17
    for spec, _ in SPECS.values():
        assert spec["measure"] in report.MEASURES
        assert spec["criteria"]


@pytest.mark.parametrize("experiment_id", sorted(SPECS))
def test_result_is_locked_to_its_spec_and_holds(experiment_id):
    spec, sha256 = SPECS[experiment_id]
    result = committed(experiment_id)
    assert result["experiment"]["spec_sha256"] == sha256
    # Every criterion names a value present in the result ...
    for criterion in spec["criteria"]:
        for ref in criterion[::2]:
            if isinstance(ref, str):
                assert ref.split("[")[0] in result["values"], ref
    # ... and the committed outcomes and verdict follow from the values.
    assert report.evaluate(spec, result["values"]) == {
        "criteria": result["criteria"], "verdict": result["verdict"],
    }
    assert result["verdict"] == "holds"


def test_experiments_md_is_the_rendering_of_the_committed_results():
    pairs = [(spec, committed(name)) for name, (spec, _) in SPECS.items()]
    rendered = report.render(pairs)
    assert (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8") == rendered


PLANTED = {
    "id": "E-PLANT",
    "artifact": "planted",
    "claim": "none",
    "measure": "lemma9",
    "args": {"ns": [64]},
    "measured": "{violations} of {grid_points}",
    "criteria": [["violations", "==", 0], ["violations", ">", 0]],
}


def test_failing_criterion_gives_violated_and_is_named():
    result = report.run_spec(PLANTED)
    assert result["verdict"] == "VIOLATED"
    assert result["criteria"] == {"violations == 0": True, "violations > 0": False}
    assert "`violations > 0` **FAILED**" in report.render([(PLANTED, result)])


@pytest.mark.parametrize(
    "criterion,message",
    [
        (["violation_count", "==", 0], "no value named 'violation_count'"),
        (["grid_points[3]", "==", 0], "grid_points\\[3\\]"),
        (["violations", "nondecreasing"], "an order needs a series"),
        (["violations", "=", 0], "not \\[value, op, value\\]"),
    ],
)
def test_malformed_criterion_is_an_error_not_a_pass(criterion, message):
    spec = {**PLANTED, "criteria": [criterion]}
    with pytest.raises(ValueError, match=message):
        report.run_spec(spec)


def test_criterion_grammar():
    values = {"rounds": [3, 5, 5, 4], "zero": 0, "ok": [True, True]}
    spec = {"id": "E-X", "criteria": [
        ["rounds[0:3]", "nondecreasing"],
        ["rounds", "nondecreasing"],
        ["rounds[1:]", ">=", "rounds[0]"],
        ["rounds[-1]", "<", "rounds[1]"],
        ["zero", "<", "rounds"],
        ["ok", "==", True],
    ]}
    assert list(report.evaluate(spec, values)["criteria"].values()) == [
        True, False, True, True, True, True,
    ]
    with pytest.raises(ValueError, match="vacuous"):
        report.evaluate({"id": "E-X", "criteria": [["rounds[4:]", ">", 0]]}, values)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "experiments").mkdir()
    shutil.copy(ROOT / "experiments" / f"{FAST}.json", tmp_path / "experiments")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_report_only_reproduces_the_committed_values(workdir):
    assert main(["report", "--only", FAST]) == 0
    produced = json.loads(
        report.result_path(workdir / "experiments", FAST).read_text(encoding="utf-8")
    )
    expected = committed(FAST)
    for key in ("values", "criteria", "verdict"):
        assert json.dumps(produced[key]) == json.dumps(expected[key])
    assert (workdir / "EXPERIMENTS.md").exists()


def test_unchanged_result_is_not_rewritten(workdir):
    source = report.result_path(ROOT / "experiments", FAST)
    shutil.copy(source, workdir / "experiments")
    assert main(["report", "--only", FAST]) == 0
    assert (workdir / "experiments" / source.name).read_bytes() == source.read_bytes()


def test_report_only_unknown_id(workdir, capsys):
    assert main(["report", "--only", "E-NOPE"]) == 2
    assert "E-NOPE" in capsys.readouterr().out


@pytest.mark.parametrize(
    "status, commit",
    [("", "e958e5d"), (" M src/repro/cli.py\n", "e958e5d-dirty")],
    ids=["clean", "dirty"],
)
def test_result_header_marks_a_dirty_tree(status, commit, monkeypatch):
    """A result regenerated over uncommitted changes to tracked files does
    not name HEAD as its code; untracked files are not asked about."""
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        out = {"rev-parse": "e958e5d\n", "status": status}[argv[1]]
        return subprocess.CompletedProcess(argv, 0, stdout=out, stderr="")

    monkeypatch.setattr(report.subprocess, "run", fake_run)
    assert report._header("abc")["commit"] == commit
    assert calls == [
        ["git", "rev-parse", "HEAD"],
        ["git", "status", "--porcelain", "--untracked-files=no"],
    ]


def test_result_header_outside_a_repository(monkeypatch):
    def no_git(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 128, stdout="", stderr="fatal")

    monkeypatch.setattr(report.subprocess, "run", no_git)
    assert report._header("abc")["commit"] == "unknown"


def test_e_chain_names_a_mutant_for_every_criterion():
    spec, _ = SPECS["E-CHAIN"]
    texts = [report._criterion_text(criterion) for criterion in spec["criteria"]]
    assert sorted(spec["mutants"]) == sorted(texts)


@pytest.mark.parametrize(
    "mutant,killed",
    [
        ("chain_point calls swapped", "fallback_optimal >= fallback_none"),
        ("the optimum never pays", "fit_a >= 1.0"),
        ("the optimum never pays", "coin_slope >= 1.0"),
    ],
)
def test_e_chain_criteria_fail_under_their_mutants(mutant, killed, monkeypatch):
    spec, _ = SPECS["E-CHAIN"]
    chain_point = report.chain_point
    swap = mutant == "chain_point calls swapped"
    # epoch_chain asks for t = 0 and for the registry t: the swap exchanges
    # them, the other mutant gives both calls t = 0
    monkeypatch.setattr(report, "chain_point", lambda n, t, epochs: chain_point(
        n, report.PRACTICAL.max_faults(n) - t if swap else 0, epochs
    ))

    values = report.epoch_chain(spec["args"]["ns"][:7])
    assert report.evaluate(spec, values)["criteria"][killed] is False
