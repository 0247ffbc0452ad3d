#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``: parent A, change B.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A.json     # A's first set vs its others

Every workload is its own row per end-to-end metric, judged with the bound
BENCHMARK.json fixes for it:

* ``better`` / ``worse``: B's median is beyond the bound on that side of A's;
* ``same``: within the bound;
* ``unresolved``: the spread between A's own sets exceeds the bound, so the
  data cannot tell (unless every B value is on one side of every A value).

The simulated statistics (``sim_*``) and ``failed_ops_ratio`` are exact for a
seed: any difference between sets of the same seed is ``worse``.  The exit
code is 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXACT = ("failed_ops_ratio", "sim_rounds", "sim_bits", "sim_random_bits",
         "sim_copies")


def end_to_end_sets(path: str) -> list[dict]:
    return [s for s in json.loads(Path(path).read_text())["sets"]
            if not s["trace"]]


def spread(values: list[float]) -> float:
    """Distance between the quartiles (the range, below four values) as a
    share of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / middle
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / middle


def verdict(a: list[float], b: list[float], bound: float, lower: bool) -> str:
    sign = 1 if lower else -1
    a, b = [sign * v for v in a], [sign * v for v in b]  # now lower is better
    if spread(a) > bound:
        if max(b) < min(a):
            return "better"
        return "worse" if min(b) > max(a) else "unresolved"
    base = statistics.median(a)
    change = (statistics.median(b) - base) / abs(base) if base else 0.0
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    sets_a = end_to_end_sets(argv[0])
    if len(argv) == 2:
        sets_b = end_to_end_sets(argv[1])
    else:
        sets_a, later = sets_a[:1], sets_a[1:]
        sets_b = [s for s in later if s["seed"] == sets_a[0]["seed"]]
    if not sets_a or not sets_b:
        print("need at least one end-to-end set on each side")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    print(f"{'workload':22s} {'metric':18s} {'A':>14s} {'B':>14s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a = [s["workloads"][workload] for s in sets_a
                  if workload in s["workloads"]]
        runs_b = [s["workloads"][workload] for s in sets_b
                  if workload in s["workloads"]]
        if not runs_a or not runs_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            result = verdict(a, b, metric["bound"], metric["better"] == "lower")
            mid_a, mid_b = statistics.median(a), statistics.median(b)
            print(f"{workload:22s} {name:18s} {mid_a:14.4f} {mid_b:14.4f} "
                  f"{(mid_b - mid_a) / mid_a:+8.1%} {metric['bound']:6.0%}  "
                  f"{result}")
            worse += result == "worse"
        exact_a = {r["seed"]: r["info"] for r in runs_a}
        paired = [(exact_a[r["seed"]], r["info"]) for r in runs_b
                  if r["seed"] in exact_a]
        for name in EXACT if paired else ():
            moved = next(
                ((a[name], b[name]) for a, b in paired if a[name] != b[name]),
                None,
            )
            before, after = moved or (paired[0][0][name], "=")
            print(f"{workload:22s} {name:18s} {before:>14} {after:>14} "
                  f"{'':8s} {'exact':>6s}  {'worse' if moved else 'same'}")
            worse += moved is not None
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
