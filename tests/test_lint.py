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
# REP005 — adversary purity
class TestRep005:
    def test_mutating_view_container_flagged(self):
        src = (
            "class Bad(Adversary):\n"
            "    def act(self, view):\n"
            "        view.faulty.add(0)\n"
            "        return None\n"
        )
        assert codes(lint_source(src, "src/x.py")) == ["REP005"]

    def test_assigning_through_loop_variable_flagged(self):
        src = (
            "class Bad(Adversary):\n"
            "    def act(self, view):\n"
            "        for message in view.messages:\n"
            "            message.payload = 0\n"
        )
        assert codes(lint_source(src, "src/x.py")) == ["REP005"]

    def test_pure_adversary_clean(self):
        src = (
            "class Good(Adversary):\n"
            "    def act(self, view):\n"
            "        pool = sorted(view.alive)\n"
            "        return AdversaryAction(corrupt=frozenset(), omit=frozenset())\n"
        )
        assert lint_source(src, "src/x.py") == []

    def test_ctx_rng_draws_exempt(self):
        src = (
            "class Good(Adversary):\n"
            "    def setup(self, ctx):\n"
            "        self.order = ctx.rng.sample(range(4), 4)\n"
        )
        assert lint_source(src, "src/x.py") == []

    def test_self_mutation_clean(self):
        src = (
            "class Good(Adversary):\n"
            "    def act(self, view):\n"
            "        self.seen.append(view.round)\n"
            "        return None\n"
        )
        assert lint_source(src, "src/x.py") == []


# ---------------------------------------------------------------------------
# REP007 — per-copy Message construction in engine hot loops
class TestRep007:
    def test_message_in_for_loop_flagged(self):
        src = (
            "def deliver(batch):\n"
            "    out = []\n"
            "    for m in batch:\n"
            "        out.append(Message(m.sender, m.recipient, m.payload))\n"
            "    return out\n"
        )
        assert codes(
            lint_source(src, "src/repro/runtime/network.py")
        ) == ["REP007"]

    def test_message_in_comprehension_flagged(self):
        src = (
            "def expand(records):\n"
            "    return [Message(r.sender, p, r.payload)\n"
            "            for r in records for p in r.recipients]\n"
        )
        assert codes(
            lint_source(src, "src/repro/runtime/columnar.py")
        ) == ["REP007"]

    def test_message_in_while_loop_flagged(self):
        src = (
            "def drain(queue):\n"
            "    while queue:\n"
            "        queue.pop().append(Message(0, 1, None))\n"
        )
        assert codes(
            lint_source(src, "src/repro/runtime/network.py")
        ) == ["REP007"]

    def test_single_construction_outside_loop_clean(self):
        src = (
            "def reply(m):\n"
            "    return Message(m.recipient, m.sender, m.payload)\n"
        )
        assert lint_source(src, "src/repro/runtime/network.py") == []

    def test_designated_materialization_points_exempt(self):
        loop = (
            "    def {name}(self, items):\n"
            "        out = []\n"
            "        for item in items:\n"
            "            out.append(Message(0, item, None))\n"
            "        return out\n"
        )
        for relpath, name in (
            ("src/repro/runtime/columnar.py", "_materialize"),
            ("src/repro/runtime/delivery.py", "_deliver_objects"),
        ):
            src = "class X:\n" + loop.format(name=name)
            assert lint_source(src, relpath) == [], relpath
            renamed = "class X:\n" + loop.format(name="other")
            assert codes(lint_source(renamed, relpath)) == ["REP007"], relpath

    def test_unlisted_loop_in_delivery_module_flagged(self):
        """The table names the object loop, not the module: a second
        per-copy loop in ``runtime/delivery.py`` is a finding, as are the
        two sites the table used to whitelist."""
        src = (
            "def deliver(self, batch, omitted, inboxes, live):\n"
            "    for record in batch.records:\n"
            "        for recipient in record.recipients:\n"
            "            inboxes[recipient].append(\n"
            "                Message(record.sender, recipient, record.payload)\n"
            "            )\n"
        )
        assert codes(
            lint_source(src, "src/repro/runtime/delivery.py")
        ) == ["REP007"]
        for relpath, name in (
            ("src/repro/runtime/network.py", "_deliver"),
            ("src/repro/runtime/process.py", "_queue_multicast"),
        ):
            stale = src.replace("def deliver", f"def {name}")
            assert codes(lint_source(stale, relpath)) == ["REP007"], relpath

    def test_messages_module_wholly_exempt(self):
        src = (
            "def __iter__(self):\n"
            "    for r in self.records:\n"
            "        yield Message(r.sender, r.recipient, r.payload)\n"
        )
        assert lint_source(src, "src/repro/runtime/messages.py") == []

    def test_outside_runtime_unflagged(self):
        src = (
            "def make(n):\n"
            "    return [Message(0, i, None) for i in range(n)]\n"
        )
        assert lint_source(src, "src/repro/adversary/tool.py") == []

    def test_loop_iterable_evaluated_once_is_clean(self):
        src = (
            "def probe(x):\n"
            "    for m in [Message(0, 1, None)]:\n"
            "        use(m)\n"
        )
        assert lint_source(src, "src/repro/runtime/network.py") == []


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

    def test_disable_all_pragma(self):
        src = "s = {1}\nfor x in s:  # repro-lint: disable=all\n    print(x)\n"
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_file_pragma_suppresses_whole_module(self):
        src = (
            "# repro-lint: disable-file=REP003\n"
            "s = {1}\n"
            "for x in s:\n"
            "    print(x)\n"
        )
        assert lint_source(src, "src/repro/core/x.py") == []

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
        # REP004, 006, 008 and 009 are retired, never reused (docs/lint.md).
        assert listed == ["REP001", "REP002", "REP003", "REP005", "REP007"]


# ---------------------------------------------------------------------------
# The repo itself stays clean (the same gate CI enforces).
def test_repo_sources_have_no_new_findings():
    report = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert report.findings == [], [
        f"{f.path}:{f.line} {f.code} {f.message}" for f in report.findings
    ]
