"""Tests for repro.lint: rules, pragmas, and the CLI.

Each rule is demonstrated on a planted violation (findings produced /
nonzero CLI exit) and on clean code (no findings / zero exit); pragma
semantics get their own section.  Fixture sources are linted
in-memory via :func:`repro.lint.lint_source` with a *relpath* chosen to
land inside (or outside) each rule's scope.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(findings) -> list[str]:
    return [finding.code for finding in findings]


# ---------------------------------------------------------------------------
# REP001 — unseeded randomness
class TestRep001:
    def test_global_random_call_flagged(self):
        src = "import random\nx = random.randint(0, 5)\n"
        assert codes(lint_source(src, "src/foo.py")) == ["REP001"]

    def test_from_import_of_global_function_flagged(self):
        src = "from random import shuffle\n"
        assert codes(lint_source(src, "src/foo.py")) == ["REP001"]

    def test_unseeded_random_instance_flagged(self):
        src = "import random\nr = random.Random()\n"
        assert codes(lint_source(src, "src/foo.py")) == ["REP001"]

    def test_seeded_random_instance_clean(self):
        src = "import random\nr = random.Random(7)\n"
        assert lint_source(src, "src/foo.py") == []

    def test_system_random_flagged(self):
        src = "import random\nr = random.SystemRandom()\n"
        assert codes(lint_source(src, "src/foo.py")) == ["REP001"]

    def test_randomness_module_exempt(self):
        src = "import random\nx = random.getrandbits(8)\n"
        assert lint_source(src, "src/repro/runtime/randomness.py") == []

    def test_method_on_seeded_instance_clean(self):
        src = "import random\nr = random.Random(1)\ny = r.randint(0, 5)\n"
        assert lint_source(src, "src/foo.py") == []


# ---------------------------------------------------------------------------
# REP002 — wall clock / entropy in replayed code
class TestRep002:
    def test_time_time_in_engine_flagged(self):
        src = "import time\nt = time.time()\n"
        assert codes(lint_source(src, "src/repro/runtime/x.py")) == ["REP002"]

    def test_perf_counter_allowed(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, "src/repro/runtime/x.py") == []

    def test_uuid_import_in_core_flagged(self):
        src = "import uuid\n"
        assert codes(lint_source(src, "src/repro/core/x.py")) == ["REP002"]

    def test_secrets_import_flagged(self):
        src = "from secrets import token_hex\n"
        assert codes(lint_source(src, "src/repro/adversary/x.py")) == ["REP002"]

    def test_datetime_now_in_replay_flagged(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert codes(lint_source(src, "src/repro/replay/x.py")) == ["REP002"]

    def test_os_urandom_flagged(self):
        src = "import os\nb = os.urandom(16)\n"
        assert codes(lint_source(src, "src/repro/harness/x.py")) == ["REP002"]

    def test_out_of_scope_module_unflagged(self):
        src = "import time\nt = time.time()\n"
        assert lint_source(src, "src/repro/analysis/x.py") == []


# ---------------------------------------------------------------------------
# REP003 — order-unstable iteration
class TestRep003:
    def test_for_over_set_flagged(self):
        src = "s = {1, 2}\nfor x in s:\n    print(x)\n"
        assert codes(lint_source(src, "src/repro/core/x.py")) == ["REP003"]

    def test_sorted_wrapper_clean(self):
        src = "s = {1, 2}\nfor x in sorted(s):\n    print(x)\n"
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_list_of_set_flagged(self):
        src = "s = set([3])\ny = list(s)\n"
        assert codes(lint_source(src, "src/repro/runtime/x.py")) == ["REP003"]

    def test_comprehension_over_frozenset_flagged(self):
        src = "out = [v for v in frozenset((1, 2))]\n"
        assert codes(lint_source(src, "src/repro/adversary/x.py")) == ["REP003"]

    def test_set_annotation_tracked(self):
        src = "def f() -> None:\n    s: set[int] = make()\n    for x in s:\n        pass\n"
        assert codes(lint_source(src, "src/repro/baselines/x.py")) == ["REP003"]

    def test_id_sort_key_flagged(self):
        src = "xs = [3, 1]\nxs.sort(key=id)\n"
        assert codes(lint_source(src, "src/repro/core/x.py")) == ["REP003"]

    def test_id_lambda_sort_key_flagged(self):
        src = "ys = sorted(items, key=lambda v: id(v))\n"
        assert codes(lint_source(src, "src/repro/core/x.py")) == ["REP003"]

    def test_dict_iteration_not_flagged(self):
        # CPython dicts iterate in insertion order (3.7+): deterministic.
        src = "d = {1: 2}\nfor k in d:\n    print(k)\n"
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_set_consumed_by_frozenset_clean(self):
        src = "s = {1, 2}\nf = frozenset(s)\nm = min(s)\n"
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_out_of_scope_module_unflagged(self):
        src = "s = {1}\nfor x in s:\n    print(x)\n"
        assert lint_source(src, "src/repro/analysis/x.py") == []


# ---------------------------------------------------------------------------
# Pragmas
class TestPragmas:
    def test_line_pragma_suppresses_named_rule(self):
        src = "s = {1}\nfor x in s:  # repro-lint: disable=REP003\n    print(x)\n"
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_line_pragma_does_not_suppress_other_rules(self):
        src = (
            "import random\n"
            "x = random.randint(0, 5)  # repro-lint: disable=REP003\n"
        )
        assert codes(lint_source(src, "src/foo.py")) == ["REP001"]

    @pytest.mark.parametrize("pragma", ["disable-file=REP003", "disable=all"])
    def test_only_the_line_form_naming_a_code_waives(self, pragma):
        src = f"s = {{1}}\nfor x in s:  # repro-lint: {pragma}\n    print(x)\n"
        assert codes(lint_source(src, "src/repro/core/x.py")) == ["REP003"]

    def test_multiple_codes_in_one_pragma(self):
        src = (
            "import random\n"
            "x = random.randint(0, 5)  # repro-lint: disable=REP001,REP002\n"
        )
        assert lint_source(src, "src/foo.py") == []


# ---------------------------------------------------------------------------
# CLI
def plant_tree(tmp_path: Path, source: str) -> Path:
    module = tmp_path / "src" / "repro" / "core" / "planted.py"
    module.parent.mkdir(parents=True)
    module.write_text(source)
    return module


CLEAN = "s = {1, 2}\nfor x in sorted(s):\n    print(x)\n"
DIRTY = "s = {1, 2}\nfor x in s:\n    print(x)\n"


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        plant_tree(tmp_path, CLEAN)
        exit_code = lint_main([str(tmp_path)])
        assert exit_code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_planted_violation_exits_nonzero(self, tmp_path, capsys):
        plant_tree(tmp_path, DIRTY)
        exit_code = lint_main([str(tmp_path)])
        assert exit_code == 1
        assert "REP003" in capsys.readouterr().out

    def test_github_format_emits_error_annotations(self, tmp_path, capsys):
        plant_tree(tmp_path, DIRTY)
        exit_code = lint_main(
            [str(tmp_path), "--format", "github"]
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert out.startswith("::error file=") and "title=REP003" in out

    def test_only_a_pragma_waives_a_finding(self, tmp_path, capsys):
        """No baseline, no flag: a finding fails the run until the line
        itself carries a pragma."""
        module = plant_tree(tmp_path, DIRTY)
        for flag in ("--baseline", "--no-baseline", "--update-baseline",
                     "--show-baselined"):
            with pytest.raises(SystemExit) as excinfo:
                lint_main([str(tmp_path), flag])
            assert excinfo.value.code == 2
        assert lint_main([str(tmp_path)]) == 1
        module.write_text(
            DIRTY.replace(
                "for x in s:",
                "for x in s:  # repro-lint: disable=REP003 (order unused)",
            )
        )
        capsys.readouterr()
        assert lint_main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_syntax_error_reported_and_fails(self, tmp_path, capsys):
        plant_tree(tmp_path, "def broken(:\n")
        exit_code = lint_main([str(tmp_path)])
        assert exit_code == 1
        assert "REP000" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(tmp_path / "nope")])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        # REP004 to REP009 are retired, never reused (docs/lint.md).
        assert listed == ["REP001", "REP002", "REP003"]


# ---------------------------------------------------------------------------
# The repo itself stays clean (the same gate CI enforces).
def test_repo_sources_have_no_new_findings():
    report = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert report.findings == [], [
        f"{f.path}:{f.line} {f.code} {f.message}" for f in report.findings
    ]
