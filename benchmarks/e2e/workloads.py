"""The seven named workloads: inputs, one op each, and the correctness gate.

Only the stable public surface is imported (``run.py --selftest`` enforces
the list), and none of the engine-selection keywords is passed, so the ops
always run on the repository's default path.

An *op* is one ``repro.harness.execute()`` call; for ``sweep-cold`` it is
one cold ``run_campaign`` pass into a fresh cache plus a warm re-read.
Input ``i`` of a workload uses seed ``SEED_STRIDE * S + i`` for the protocol,
the adversary and the input vector, so two values of ``--seed`` never share
an input.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.adversary import RandomOmissionAdversary, VoteBalancingAdversary
from repro.analysis.campaign import CampaignSpec, run_campaign
from repro.fabric import open_cache
from repro.harness import execute

NPROC = len(os.sched_getaffinity(0))
OUT_DIR = Path(__file__).resolve().parent / "out"
OP_TIMEOUT_S = 120
SEED_STRIDE = 16  # more than any K and than the sweep's seeds per grid
CALIBRATION_LOOPS = 400_000
#: What calibrate() reads on the host of the committed baseline when no
#: neighbour slows it.  Host times are scaled to this speed.
REFERENCE_CALIBRATION_S = 0.0165


@dataclass(frozen=True)
class Workload:
    name: str
    k: int  # inputs per pass
    protocol: str = "algorithm1"
    n: int = 0
    layer: str = "core"  # where the protocol's compute lives
    t: int | None = None
    adversary: Any = None  # seed -> Adversary
    tcp: bool = False
    sweep: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("alg1-faultfree", k=2, n=256),
        Workload(
            "alg1-adaptive", k=3, n=144,
            adversary=lambda seed: VoteBalancingAdversary(seed=seed),
        ),
        Workload(
            "benor-omission", k=6, protocol="ben-or", n=256, t=32,
            layer="baselines",
            adversary=lambda seed: RandomOmissionAdversary(0.6, seed=seed),
        ),
        Workload(
            "dolev-strong-chains", k=3, protocol="dolev-strong", n=144,
            layer="baselines",
        ),
        Workload("tradeoff-rounds", k=3, protocol="tradeoff", n=144),
        Workload("sweep-cold", k=2, sweep=True),
        Workload("alg1-tcp", k=3, n=64, tcp=True),
    )
}

SWEEP_NS = (36, 64, 100)
SWEEP_ADVERSARIES = ("none", "balance")
SWEEP_SEEDS = 2  # seeds per grid: 3 ns x 2 adversaries x 2 = 12 cells


def balanced_inputs(n: int, seed: int) -> list[int]:
    """A perfectly balanced split (the hardest assignment: every epoch
    needs the coin), placed by the seed."""
    inputs = [pid % 2 for pid in range(n)]
    random.Random(seed).shuffle(inputs)
    return inputs


def sweep_spec(seed: int, ns=SWEEP_NS) -> CampaignSpec:
    return CampaignSpec(
        "e2e-sweep", "algorithm1", ns=ns, adversaries=SWEEP_ADVERSARIES,
        seeds=tuple(range(seed, seed + SWEEP_SEEDS)),
    )


def digest(value: Any) -> str:
    data = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now (~20 ms).

    The host has a slow state, ~35% slower, that comes and goes within
    seconds to minutes and slows this loop and the simulator by the same
    factor; an op's cost is scaled by the loop's speed around it.
    """
    began, x = time.perf_counter(), 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - began


def host_speed(*calibrations: float) -> float:
    """Host speed relative to the reference (below 1 when it is slower)."""
    return REFERENCE_CALIBRATION_S * len(calibrations) / sum(calibrations)


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def cpu_seconds() -> float:
    """User+sys CPU of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """max(ru_maxrss of this process, largest reaped child), in MiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


@dataclass
class Sample:
    """One op: host cost, simulated statistics, and the gate's verdict."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    speed: float = 1.0  # host_speed() around the op
    failure: str | None = None
    timed_out: bool = False
    traced: bool = False
    fingerprint: dict[str, Any] = field(default_factory=dict)
    facts: dict[str, Any] = field(default_factory=dict)  # layer counts


class Bench:
    """One workload's inputs and ops for base seed ``seed``."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.w = workload
        step = SWEEP_SEEDS if workload.sweep else 1  # grids share no cell
        self.seeds = [
            SEED_STRIDE * seed + step * i for i in range(workload.k)
        ]
        self.inputs = [balanced_inputs(workload.n, s) for s in self.seeds]
        self.twins: list[Sample] = []
        self._scratch = OUT_DIR / f"tmp-{os.getpid()}"
        self._dirs = 0
        self._calibration = calibrate()
        self.last_sweep: dict[str, Any] = {}

    def setup(self) -> None:
        """Everything before the first timed op: the in-process twins the
        TCP runs are checked against, and one untimed warm-up op that
        fills the partition and spreading-graph caches.

        The warm-up is input 0's op on a unanimous input vector (for the
        sweep, its n=36 cells): no epoch needs the coin, so set-up never
        pays for a Dolev-Strong fallback and costs the same for every seed.
        """
        signal.signal(signal.SIGALRM, _on_alarm)
        if self.w.tcp:
            self.twins = [self.op(i, tcp=False) for i in range(self.w.k)]
        self.seeds.append(self.seeds[0])
        self.inputs.append([0] * self.w.n)
        warm = self.op(self.w.k, sweep_ns=SWEEP_NS[:1])
        del self.seeds[-1], self.inputs[-1]
        if warm.failure:
            raise RuntimeError(f"warm-up op failed: {warm.failure}")

    def close(self) -> None:
        shutil.rmtree(self._scratch, ignore_errors=True)

    # ------------------------------------------------------------------
    def op(self, i: int, observers=(), tcp=None, sweep_ns=SWEEP_NS) -> Sample:
        """Run input ``i`` once: timed call, then the gate outside it.

        ``observers`` is empty or one :class:`spans.SpanObserver`.
        """
        sample = Sample(traced=bool(observers))
        call, check = (
            (self._sweep_call, self._gate_sweep) if self.w.sweep
            else (self._execute_call, self._gate_run)
        )
        signal.alarm(OP_TIMEOUT_S)
        try:
            for tracer in observers:
                tracer.begin_op(i)
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                outcome = call(
                    i, observers, self.w.tcp if tcp is None else tcp, sweep_ns
                )
            finally:
                sample.wall_s = time.perf_counter() - t0
                sample.cpu_s = cpu_seconds() - cpu0
            for tracer in observers:
                sample.facts["span_wall_s"] = tracer.end_op()
            before, self._calibration = self._calibration, calibrate()
            sample.speed = host_speed(before, self._calibration)
            sample.failure = check(i, outcome, sample)
        except Exception as error:  # the gate's first rule: an op that raises
            sample.failure = f"{type(error).__name__}: {error}"
            sample.timed_out = isinstance(error, OpTimeout)
        finally:
            signal.alarm(0)
        return sample

    # -- protocol ops ----------------------------------------------------
    def _execute_call(self, i, observers, tcp, _sweep_ns):
        w, seed = self.w, self.seeds[i]
        extra = {}
        if tcp:
            extra = {
                "transport": "tcp",
                "transport_options": {
                    "processes_per_worker": -(-w.n // NPROC)
                },
            }
        return execute(
            w.protocol, self.inputs[i], t=w.t, seed=seed,
            adversary=w.adversary(seed) if w.adversary else None,
            observers=observers, **extra,
        )

    def _gate_run(self, i, run, sample) -> str | None:
        result, metrics = run.result, run.result.metrics
        decision = result.agreement_value()  # raises on disagreement
        sample.fingerprint = {
            "decision": decision,
            "decisions": digest(sorted(result.decisions.items())),
            "rounds": result.time_to_agreement(),
            "faulty": len(result.faulty),
            **metrics.summary(),
        }
        sample.facts = {
            **sample.facts,
            "fallback": bool(run.ran_deterministic_fallback),
            "random_bits_max": max(
                (bits for _, bits in result.randomness_per_process), default=0
            ),
        }
        budget = run.request.t
        if budget is None:
            budget = getattr(run.processes[0], "t", self.w.n)
        if decision not in self.inputs[i]:
            return f"decision {decision!r} is not an input"
        if len(result.faulty) > budget:
            return f"{len(result.faulty)} faulty exceeds t={budget}"
        if metrics.messages_sent != (
            metrics.messages_delivered
            + metrics.messages_omitted
            + metrics.messages_lost
        ):
            return f"metering identity broken: {metrics.summary()}"
        if i < len(self.twins) and (
            sample.fingerprint != self.twins[i].fingerprint
        ):
            return "tcp fingerprint differs from its in-process twin"
        return None

    # -- the sweep op ----------------------------------------------------
    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self._scratch / f"sweep-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def _sweep_call(self, i, _observers, _tcp, ns):
        spec, where = sweep_spec(self.seeds[i], ns), self.fresh_dir()
        cache, journal = open_cache(where / "cache"), where / "journal.jsonl"
        t0 = time.perf_counter()
        cold = run_campaign(spec, jobs=NPROC, cache=cache, journal=journal)
        t1 = time.perf_counter()
        cold_stats = _stats(cache)
        executed: list = []
        warm = run_campaign(
            spec, jobs=NPROC, cache=cache, journal=journal,
            on_record=executed.append,
        )
        t2 = time.perf_counter()
        return {
            "spec": spec, "cache": cache, "where": where, "cold": cold,
            "warm": warm, "executed": len(executed), "cold_stats": cold_stats,
            "warm_stats": _stats(cache), "marks": (t0, t1, t2),
        }

    def _gate_sweep(self, i, out, sample) -> str | None:
        cold, stats = out["cold"], out["warm_stats"]
        sample.fingerprint = {
            "records": digest(cold),
            "cells": len(cold),
            "rounds": sum(r["rounds"] for r in cold),
            "messages_sent": sum(r["messages"] for r in cold),
            "bits_sent": sum(r["bits"] for r in cold),
            "random_bits": sum(r["random_bits"] for r in cold),
        }
        store = out["where"] / "cache"
        t0, t1, t2 = out["marks"]
        sample.facts = {
            "cold_s": t1 - t0, "warm_s": t2 - t1,
            "cache_hits": stats["hits"] - out["cold_stats"]["hits"],
            "cache_puts": stats["puts"], "cache_invalid": stats["invalid"],
            "store_bytes": sum(
                p.stat().st_size for p in store.rglob("*") if p.is_file()
            ),
        }
        self.last_sweep = out  # the traced pass probes this warm store
        if any(r.get("failed") for r in cold):
            return "a cell failed"
        if out["executed"] or stats["puts"] > out["cold_stats"]["puts"]:
            return "the warm pass executed a cell"
        if out["warm"] != cold:
            return "the warm pass returned different records"
        if stats["invalid"]:
            return f"{stats['invalid']} invalid cache entries"
        return None


def _stats(cache) -> dict[str, int]:
    stats = getattr(cache, "stats", None)
    return {
        key: getattr(stats, key, 0) for key in ("hits", "puts", "invalid")
    }
