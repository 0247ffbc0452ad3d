"""Round-engine delivery paths: legacy sends vs multicast vs columnar.

An all-to-all broadcast round is the paper's dominant traffic shape (every
phase of Algorithm 3 fans the same payload out to large committees), and
it is exactly where a per-copy engine wastes work.  This bench pits three
arms against each other on the same workload:

* *legacy* — an explicit ``env.send`` loop over all other processes on
  the object loop (the pre-multicast idiom, still fully supported);
* *fastpath* — one ``env.broadcast`` per round on the object loop
  (one record queued per broadcast, per-copy ``Message`` views
  materialized at inbox delivery);
* *columnar* — the same broadcasts on the numpy delivery plan: delivery
  planned as array math over contiguous copy vectors, inboxes handed out
  as lazy views.

The engine picks the object loop or the columnar plan per batch on its own
(``repro.runtime.delivery``); the arms pin every batch to one path through
the rule's fan-out constant, the same seam ``tests/test_columnar.py`` uses.

All executions must be byte-identical — same decisions, same rounds, same
value for every :class:`Metrics` counter and per-round series — and each
tier must clear its speedup bar: ``--threshold`` for fastpath over legacy
(2.5x at the default n=512) and ``--columnar-threshold`` for columnar
over fastpath (10x at the default n=512; the ``--quick`` CI smoke run
uses a smaller instance and softer bars because shared runners are
noisy).

CI additionally gates on throughput regressions: ``--baseline PATH``
compares each arm's copies/second against a previously uploaded result
JSON and fails when any arm drops more than ``--max-regression``
(default 15%).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_fastpath.py
    PYTHONPATH=src python benchmarks/bench_engine_fastpath.py --quick \
        --engine both --json BENCH_engine_fastpath.json
    PYTHONPATH=src python benchmarks/bench_engine_fastpath.py --n 1024 \
        --baseline BENCH_engine_fastpath.json --max-regression 0.15
    PYTHONPATH=src python benchmarks/bench_engine_fastpath.py \
        --scaling 512,1024,2048,4096   # Table-1 style engine scaling
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any

from repro.runtime import (
    HAVE_NUMPY,
    Metrics,
    SyncNetwork,
    SyncProcess,
    delivery,
)


def certificate_payload(pid: int, round_no: int) -> tuple:
    """A protocol-shaped broadcast payload: tag, round, sender, value, a
    membership mask, and a small nested certificate tuple (the recursive
    ``payload_bits`` case every real phase message exercises)."""
    return (
        3,
        round_no,
        pid,
        pid & 7,
        1 << (pid % 61),
        (pid, round_no, 1, 0, 1, pid ^ round_no),
    )


class LoopSender(SyncProcess):
    """All-to-all via the legacy idiom: one ``env.send`` per recipient."""

    rounds = 4

    def program(self, env):
        for round_no in range(self.rounds):
            payload = certificate_payload(self.pid, round_no)
            for recipient in range(self.n):
                if recipient != self.pid:
                    env.send(recipient, payload)
            yield
        env.decide(0)


class MulticastSender(SyncProcess):
    """All-to-all via the redesigned API: one ``env.broadcast`` per round."""

    rounds = 4

    def program(self, env):
        for round_no in range(self.rounds):
            env.broadcast(certificate_payload(self.pid, round_no))
            yield
        env.decide(0)


#: arm name -> (process class, every batch on the columnar plan?)
ARMS: dict[str, tuple[type[SyncProcess], bool]] = {
    "legacy": (LoopSender, False),
    "fastpath": (MulticastSender, False),
    "columnar": (MulticastSender, True),
}

#: ``--engine`` -> which arms run.
ENGINE_ARMS = {
    "object": ("legacy", "fastpath"),
    "columnar": ("fastpath", "columnar"),
    "both": ("legacy", "fastpath", "columnar"),
}


def fingerprint(result) -> dict[str, Any]:
    """Everything that must match byte-for-byte between the paths."""
    metrics: Metrics = result.metrics
    return {
        "decisions": result.decisions,
        "rounds": result.rounds,
        "all_terminated": result.all_terminated,
        "metrics": metrics.summary(),
        "messages_per_round": metrics.messages_per_round,
        "bits_per_round": metrics.bits_per_round,
    }


def run_once(process_cls, n: int, rounds: int, seed: int, columnar: bool):
    process_cls = type(
        process_cls.__name__, (process_cls,), {"rounds": rounds}
    )
    network = SyncNetwork([process_cls(pid, n) for pid in range(n)], seed=seed)
    shipped = delivery._COLUMNAR_MIN_FANOUT
    delivery._COLUMNAR_MIN_FANOUT = 0 if columnar else math.inf
    try:
        started = time.perf_counter()
        result = network.run()
        return time.perf_counter() - started, result
    finally:
        delivery._COLUMNAR_MIN_FANOUT = shipped


def bench(
    arms: tuple[str, ...], n: int, rounds: int, repeats: int, seed: int
) -> dict[str, Any]:
    """Interleaved best-of-``repeats`` timing of the selected arms."""
    best = {name: float("inf") for name in arms}
    prints: dict[str, dict[str, Any]] = {}
    for _ in range(repeats):
        for name in arms:
            cls, columnar = ARMS[name]
            elapsed, result = run_once(cls, n, rounds, seed, columnar)
            best[name] = min(best[name], elapsed)
            prints[name] = fingerprint(result)
    copies = n * (n - 1) * rounds
    record: dict[str, Any] = {
        "n": n,
        "rounds": rounds,
        "repeats": repeats,
        "arms": list(arms),
        "message_copies": copies,
        "identical": len({json.dumps(p, sort_keys=True) for p in prints.values()})
        == 1,
        "metrics": prints[arms[-1]]["metrics"],
    }
    for name in arms:
        record[f"{name}_seconds"] = best[name]
        record[f"{name}_copies_per_second"] = copies / best[name]
    if "legacy" in best and "fastpath" in best:
        record["speedup"] = best["legacy"] / best["fastpath"]
    if "fastpath" in best and "columnar" in best:
        record["columnar_speedup"] = best["fastpath"] / best["columnar"]
    return record


def check_baseline(
    record: dict[str, Any], baseline: dict[str, Any], max_regression: float
) -> list[str]:
    """Per-arm throughput regressions beyond ``max_regression``."""
    failures: list[str] = []
    for key in ("n", "rounds"):
        if baseline.get(key) != record[key]:
            failures.append(
                f"baseline {key}={baseline.get(key)} does not match this "
                f"run's {key}={record[key]}; refusing to compare"
            )
            return failures
    for name in record["arms"]:
        key = f"{name}_copies_per_second"
        old = baseline.get(key)
        if old is None:
            continue
        new = record[key]
        floor = old * (1.0 - max_regression)
        if new < floor:
            failures.append(
                f"{name}: {new:,.0f} copies/s is "
                f"{1.0 - new / old:.1%} below baseline {old:,.0f} "
                f"(allowed {max_regression:.0%})"
            )
    return failures


def scaling_table(ns: list[int], rounds: int, seed: int) -> list[dict[str, Any]]:
    """Columnar-engine throughput cells for a Table-1 style scaling sweep."""
    cells = []
    for n in ns:
        elapsed, result = run_once(MulticastSender, n, rounds, seed, True)
        copies = n * (n - 1) * rounds
        cells.append(
            {
                "n": n,
                "rounds": rounds,
                "seconds": elapsed,
                "message_copies": copies,
                "copies_per_second": copies / elapsed,
                "bits_sent": result.metrics.bits_sent,
            }
        )
    return cells


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke configuration: n=128, 2 repeats, softened bars",
    )
    parser.add_argument("--n", type=int, default=None, help="process count")
    parser.add_argument(
        "--rounds", type=int, default=4, help="broadcast rounds per run"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="interleaved repetitions"
    )
    parser.add_argument(
        "--engine",
        choices=sorted(ENGINE_ARMS),
        default="both",
        help="which delivery engines to run (default both)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="minimum fastpath-over-legacy speedup "
        "(default 2.5, or 1.3 with --quick)",
    )
    parser.add_argument(
        "--columnar-threshold",
        type=float,
        default=None,
        help="minimum columnar-over-fastpath speedup "
        "(default 10.0, or 2.0 with --quick)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="previous result JSON to gate throughput regressions against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="maximum tolerated per-arm copies/s drop vs --baseline "
        "(default 0.15)",
    )
    parser.add_argument(
        "--scaling",
        metavar="N1,N2,...",
        default=None,
        help="instead of the arm comparison, run the columnar engine once "
        "per listed n and print the throughput scaling table",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write the result JSON"
    )
    args = parser.parse_args(argv)

    if args.engine != "object" and not HAVE_NUMPY:
        print("SKIP: numpy unavailable; only --engine object can run")
        return 0 if args.engine == "both" else 1

    if args.scaling is not None:
        ns = [int(part) for part in args.scaling.split(",") if part]
        cells = scaling_table(ns, rounds=args.rounds, seed=7)
        print(f"columnar engine scaling ({args.rounds} all-to-all rounds)")
        print(f"{'n':>6} {'copies':>12} {'seconds':>9} {'copies/s':>13}")
        for cell in cells:
            print(
                f"{cell['n']:>6} {cell['message_copies']:>12,} "
                f"{cell['seconds']:>9.3f} {cell['copies_per_second']:>13,.0f}"
            )
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump({"scaling": cells}, handle, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        return 0

    n = args.n if args.n is not None else (128 if args.quick else 512)
    repeats = (
        args.repeats if args.repeats is not None else (2 if args.quick else 3)
    )
    threshold = (
        args.threshold
        if args.threshold is not None
        else (1.3 if args.quick else 2.5)
    )
    columnar_threshold = (
        args.columnar_threshold
        if args.columnar_threshold is not None
        else (2.0 if args.quick else 10.0)
    )

    arms = ENGINE_ARMS[args.engine]
    record = bench(arms, n=n, rounds=args.rounds, repeats=repeats, seed=7)
    record["threshold"] = threshold
    record["columnar_threshold"] = columnar_threshold
    record["quick"] = args.quick

    print(
        f"n={record['n']} rounds={record['rounds']} "
        f"copies={record['message_copies']} engine={args.engine}"
    )
    labels = {
        "legacy": "legacy   (send loop, object)",
        "fastpath": "fastpath (broadcast, object)",
        "columnar": "columnar (broadcast, numpy) ",
    }
    for name in arms:
        print(
            f"{labels[name]}: {record[f'{name}_seconds']:.3f} s  "
            f"({record[f'{name}_copies_per_second']:,.0f} copies/s)"
        )
    if "speedup" in record:
        print(
            f"fastpath speedup: {record['speedup']:.2f}x "
            f"(threshold {threshold}x)"
        )
    if "columnar_speedup" in record:
        print(
            f"columnar speedup: {record['columnar_speedup']:.2f}x over "
            f"fastpath (threshold {columnar_threshold}x)"
        )
    print(f"byte-identical executions: {record['identical']}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if not record["identical"]:
        print("FAIL: executions diverged between the engine paths")
        return 1
    if "speedup" in record and record["speedup"] < threshold:
        print("FAIL: fastpath speedup below threshold")
        return 1
    if (
        "columnar_speedup" in record
        and record["columnar_speedup"] < columnar_threshold
    ):
        print("FAIL: columnar speedup below threshold")
        return 1
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check_baseline(record, baseline, args.max_regression)
        for failure in failures:
            print(f"FAIL: regression vs baseline: {failure}")
        if failures:
            return 1
        print(
            f"no arm regressed more than {args.max_regression:.0%} vs "
            f"{args.baseline}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
