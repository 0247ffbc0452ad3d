"""Reachability census: which ``src/repro`` functions does anything run?

Runs, in this interpreter and under a call tracer, every entry point the
repository ships:

* every ``experiments/<id>.json`` spec (the measures ``report`` runs; no
  result file is written) and the EXPERIMENTS.md render;
* the CLI flows CI and the docs drive: ``run`` (text and ``--json``), a
  cold and a warm ``campaign run`` into a fresh cache,
  ``campaign status`` (text and ``--json``), ``replay`` of the committed
  golden recipes, and a ``replay --shrink`` of a failing recipe;
* every example script, at its shipped arguments (the SMR example at
  ``--replicas 12 --slots 1`` in-process and over TCP);
* the ``benchmarks/e2e`` traced pass of each workload (``run.py
  --trace 1``: untraced, span-traced and payload-sizing ops, the fabric
  probe);
* one execution of every registry protocol under every ``GALLERY``
  adversary, plus a recorded and replayed run of each;

then prints every function defined under ``src/repro`` that none of them
entered, grouped by file.  A listed function is deleted, or its caller is
named where the census cannot see it.  The tracer sees this interpreter
only: code that runs in forked children (TCP workers, ``campaign --jobs``
pool workers) is entered here through the in-process twins where those
exist, and is otherwise listed.

    PYTHONPATH=src python tools/reachability.py

It takes no options and runs ~8 min on a 2-core box.  Exit status is 0;
the list, on stdout, is the output.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def defined_functions() -> dict[tuple[str, int], str]:
    """Qualname of every ``def`` under ``src/repro``, keyed by ``(file,
    first line)`` (the first line is the first decorator's, as in
    ``code.co_firstlineno``)."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    found[(str(path), first)] = qualname
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


class Tracer:
    """Collects the code object of every Python frame entered."""

    def __init__(self) -> None:
        self.codes: set = set()

    def __call__(self, frame, event, arg):
        self.codes.add(frame.f_code)
        return None

    def __enter__(self) -> Tracer:
        threading.settrace(self)
        sys.settrace(self)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def reached(self) -> set[tuple[str, int]]:
        return {(code.co_filename, code.co_firstlineno) for code in self.codes}


# ---------------------------------------------------------------------------
# Entry points.
def experiments() -> None:
    from repro.analysis import report

    specs = report.load_specs(ROOT / "experiments")
    pairs = []
    for experiment_id, (spec, _) in specs.items():
        report.run_spec(spec)
        path = report.result_path(ROOT / "experiments", experiment_id)
        pairs.append((spec, json.loads(path.read_text())))
    report.render(pairs)


def cli_flows() -> None:
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        main(["run", "--n", "36", "--adversary", "silence", "--seed", "1"])
        main(["run", "--n", "36", "--adversary", "silence", "--seed", "1",
              "--json"])
        grid = ["--name", "census", "--ns", "33,48",
                "--adversaries", "none,silence", "--seeds", "0,1",
                "--cache", str(workdir / "cache")]
        for _ in ("cold", "warm"):
            main(["campaign", "run", *grid,
                  "--output", str(workdir / "out.json")])
        for extra in ([], ["--json"]):
            main(["campaign", "status", *grid, *extra])
        for recipe in sorted((ROOT / "tests" / "data").glob("golden-*.json")):
            with contextlib.suppress(SystemExit):
                main(["replay", str(recipe)])
        main(["replay", str(_failing_recipe(workdir)), "--shrink"])


def _failing_recipe(workdir: Path) -> Path:
    """A recipe whose run violates agreement: a one-round majority vote
    with no fault tolerance at all, split by random omissions."""
    from repro.adversary import RandomOmissionAdversary
    from repro.harness import ExecutionConfig, ProtocolSpec, register_protocol
    from repro.replay import record, save_recipe
    from repro.runtime import SyncProcess, inbox_payloads

    class Majority(SyncProcess):
        def __init__(self, pid, n, bit):
            super().__init__(pid, n)
            self.bit = bit

        def program(self, env):
            env.broadcast(self.bit)
            inbox = yield
            ones = sum(inbox_payloads(inbox)) + self.bit
            env.decide(int(2 * ones >= len(inbox) + 1))

    register_protocol(ProtocolSpec(
        name="census-majority", summary="planted agreement bug",
        build=lambda request: ([
            Majority(pid, request.n, bit)
            for pid, bit in enumerate(request.inputs)
        ], 4),
        default_max_rounds=10, sweepable=False,
    ), replace=True)
    recorded = record(
        ExecutionConfig("census-majority", [0, 1, 0, 1, 0, 1, 0, 1, 1], t=4),
        RandomOmissionAdversary(0.6, corrupt_count=4, seed=0),
    )
    assert recorded.failed, "the planted recipe must fail for --shrink to run"
    return save_recipe(recorded.recipe, workdir / "failing.json")


def examples() -> None:
    runs = [[str(script)] for script in sorted((ROOT / "examples").glob("*.py"))]
    smr = str(ROOT / "examples" / "state_machine_replication.py")
    small = ["--replicas", "12", "--slots", "1", "--verify-replay"]
    runs = [argv + small if argv[0] == smr else argv for argv in runs]
    runs.append([smr, *small, "--transport", "tcp",
                 "--processes-per-worker", "4"])
    saved = sys.argv
    try:
        for argv in runs:
            sys.argv = argv
            with contextlib.suppress(SystemExit):
                runpy.run_path(argv[0], run_name="__main__")
    finally:
        sys.argv = saved


def workloads() -> None:
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import run
    from workloads import WORKLOADS, Bench

    for workload in WORKLOADS.values():
        bench = Bench(workload, 1000)
        try:
            bench.setup()
            run.trace(bench, 1000)  # untraced, traced and sizing ops
        finally:
            bench.close()


def protocols() -> None:
    from repro.adversary import GALLERY
    from repro.harness import (
        ExecutionConfig,
        available_protocols,
        execute,
        protocol_spec,
    )
    from repro.params import ProtocolParams
    from repro.replay import record, replay

    n = 33
    for name in available_protocols():
        spec = protocol_spec(name)
        t = spec.campaign_t(n, ProtocolParams.practical())
        inputs = [pid % 2 for pid in range(n)] if spec.uses_inputs else None
        for adversary in sorted(GALLERY):
            execute(name, inputs, n=n, t=t,
                    adversary=GALLERY[adversary](n, t, 1), seed=1)
        recorded = record(ExecutionConfig(name, inputs, n=n, t=t, seed=2),
                          GALLERY["random"](n, t, 2))
        replay(recorded.recipe)


def main() -> int:
    defined = defined_functions()
    with Tracer() as tracer:
        for step in (experiments, cli_flows, examples, workloads, protocols):
            print(f"census: {step.__name__}", file=sys.stderr)
            with contextlib.redirect_stdout(io.StringIO()):
                step()
    reached = tracer.reached()
    unreached = sorted(key for key in defined if key not in reached)
    by_file: dict[str, list[str]] = {}
    for path, line in unreached:
        relative = os.path.relpath(path, ROOT)
        by_file.setdefault(relative, []).append(f"{defined[path, line]}:{line}")
    for relative, names in by_file.items():
        print(relative)
        for name in names:
            print(f"  {name}")
    print(f"{len(unreached)} of {len(defined)} functions unreached")
    return 0

if __name__ == "__main__":
    sys.exit(main())
