"""Spec-locked experiments and the one reader that renders EXPERIMENTS.md.

Each experiment is written once, as ``experiments/<id>.json``: the paper
artifact and claim, one measure name from :data:`MEASURES`, the measure's
arguments, a ``measured`` sentence (a ``str.format`` template over the
arguments and the measure's values) and the pass/fail criteria.  A criterion is
``[value, op, value]`` with ``op`` one of ``< <= == >= >`` or
``[value, "nondecreasing" | "nonincreasing"]``.  A value is a name the
measure returns, optionally indexed or sliced (``rounds[0]``,
``rounds[0:5]``), or a JSON number / boolean.  A series compared with a
scalar (or with an equally long series) must hold element by element.
Anything richer is a value the measure computes.

``repro-consensus report [--only ID,...]`` (:func:`write_report`) runs the
specs, writes ``experiments/<id>.result.json`` when a value, an outcome,
the verdict or the spec's bytes changed, and renders EXPERIMENTS.md from
every result file.  Constants are not expected to match the paper (see
DESIGN.md): the criteria state shapes and the lemmas' exact inequalities.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import math
import operator
import os
import platform
import random
import re
import subprocess
import time
from pathlib import Path

from ..adversary import (
    GALLERY,
    ChaosAdversary,
    RandomOmissionAdversary,
    SilenceAdversary,
    StaticCrashAdversary,
    VoteBalancingAdversary,
)
from ..baselines import measure_amortization
from ..core import (
    apply_vote_rule,
    cached_bag_tree,
    cached_sqrt_partition,
    core_total_rounds,
)
from ..core.aggregation import group_bits_aggregation
from ..core.spreading import SpreadingState, group_bits_spreading
from ..graphs import (
    is_edge_sparse,
    is_expanding,
    robust_core,
    spreading_graph,
    subgraph_diameter,
)
from ..harness import ExecutionConfig, ProtocolSpec, available_protocols, execute, protocol_spec
from ..lowerbound import (
    classify_all_inputs,
    FloodMinProtocol,
    measure_tradeoff_product,
    sweep_lemma12,
    verify_lemma9,
    verify_threshold_inequality,
)
from ..params import ProtocolParams
from ..replay import SCENARIOS, check_consensus_protocol
from ..runtime import CountingRandom, SyncProcess
from . import theory
from .campaign import CampaignSpec, mixed_inputs, run_campaign
from .fits import loglog_slope
from .montecarlo import wilson_interval

PRACTICAL = ProtocolParams.practical()


def _append(values: dict, **row) -> None:
    """Extend one series per keyword by one element."""
    for name, value in row.items():
        values.setdefault(name, []).append(value)


# ---------------------------------------------------------------------------
# Measures: spec arguments in, named values out.
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    if value >= 1_000_000:
        return f"{value / 1_000_000:.2f}M"
    if value >= 1_000:
        return f"{value / 1_000:.1f}k"
    return f"{value:.0f}" if value == int(value) else f"{value:.2f}"


def table1(n, seed):
    """Table 1 at one (n, t): Theorems 1 and 3 measured on balanced inputs,
    the theory rows and the three lower-bound rows evaluated beside them."""
    t, x = PRACTICAL.max_faults(n), max(2, n // 16)
    inputs = mixed_inputs(n)
    main = execute("algorithm1", inputs, t=t, params=PRACTICAL, seed=seed)
    dial = execute("tradeoff", inputs, x=x, params=PRACTICAL, seed=seed)
    rounds, metrics = main.result.time_to_agreement(), main.metrics
    values = {
        "n": n, "t": t, "x": x, "rounds": rounds,
        "bits": metrics.bits_sent, "random_bits": metrics.random_bits,
        "messages": metrics.messages_sent,
        "product": rounds * (metrics.random_calls + rounds),
        "bjbo_rounds": theory.bar_joseph_ben_or_rounds(n, t),
        "abraham_messages": theory.abraham_messages(t),
        "theorem2_product": theory.theorem2_product(n, t),
    }
    values["table"] = [
        ["result", "time", "comm. bits", "random bits", "comments"],
        ["Thm 1 (measured)", f"{rounds} rounds", _fmt(metrics.bits_sent),
         _fmt(metrics.random_bits), f"n={n}, t={t}, decision={main.decision}"],
        ["Thm 1 (theory)", _fmt(theory.theorem1_rounds(n, t)),
         _fmt(theory.theorem1_bits(n, t)),
         _fmt(theory.theorem1_random_bits(n, t)),
         "O(sqrt(n)log^2 n), O(n^2 log^3 n), O(n^1.5 log^2 n)"],
        ["Thm 3 (measured)", f"{dial.result.time_to_agreement()} rounds",
         _fmt(dial.metrics.bits_sent), _fmt(dial.metrics.random_bits),
         f"x={x} super-processes, decision={dial.decision}"],
        ["Thm 3 (theory)", _fmt(theory.theorem3_rounds(n, x)),
         _fmt(theory.theorem1_bits(n, t)),
         _fmt(theory.theorem3_random_bits(n, x)),
         "O(n^2/R log^2 n) rounds for R random bits"],
        ["[10] lower bound", _fmt(values["bjbo_rounds"]), "-", "-",
         "Omega(t/sqrt(n log n)) rounds, correct prob. = 1"],
        ["[1] lower bound", "-", _fmt(values["abraham_messages"]), "-",
         "Omega(eps t^2) messages, correct prob. >= 3/4 + eps"],
        ["Thm 2 lower bound", "T", "-", "R",
         "T(R+T) >= t^2/log n = " + _fmt(values["theorem2_product"])],
    ]
    return values


def overlay(degree_ns, degree_seed, certify_ns, certify_seed, samples,
            core_ns, core_seed, diameter_ns):
    """Figure 1's two structures: the overlay's degree profile, Theorem 4's
    expansion / (relaxed alpha = Delta/2) edge-sparsity certificates, the
    Lemma-4 core after removing the n/15 highest-degree vertices, and the
    sqrt(n)-group decomposition."""
    values: dict = {}
    for n in degree_ns:
        delta = PRACTICAL.delta(n)
        graph = spreading_graph(n, delta, seed=degree_seed)
        degrees = [graph.degree(v) for v in range(n)]
        partition = cached_sqrt_partition(n)
        sizes = [len(group) for group in partition.groups]
        root = math.isqrt(n)
        _append(
            values, delta=delta, min_degree=min(degrees),
            avg_degree=2 * graph.edge_count / n, avg_degree_floor=0.8 * delta,
            operative_degree=delta // 3, groups=partition.group_count,
            groups_expected=root + (root * root != n),
            group_size_spread=max(sizes) - min(sizes),
        )
    for n in certify_ns:
        delta = PRACTICAL.delta(n)
        graph = spreading_graph(n, delta, seed=certify_seed)
        _append(
            values,
            expanding=is_expanding(
                graph, n // 10, samples=samples, seed=certify_seed
            ),
            edge_sparse=is_edge_sparse(
                graph, n // 10, alpha=delta / 2, samples=samples,
                seed=certify_seed,
            ),
        )
    for n in core_ns:
        delta = PRACTICAL.delta(n)
        graph = spreading_graph(n, delta, seed=core_seed)
        removed = sorted(range(n), key=graph.degree, reverse=True)[: n // 15]
        core = robust_core(graph, removed, delta // 3)
        _append(values, removed=len(removed), core=len(core),
                core_bound=n - 4 * len(removed) // 3)
        if n in diameter_ns:
            _append(values, diameter=subgraph_diameter(graph, core),
                    diameter_bound=math.ceil(2 * math.log2(n)))
    return values


class _Aggregator(SyncProcess):
    """One member of a single-group GroupBitsAggregation; decides
    ``(ones, zeros, operative)``."""

    def __init__(self, pid, n):
        super().__init__(pid, n)
        self.bit = pid % 2

    def program(self, env):
        group = tuple(range(self.n))
        tree = cached_bag_tree(group)
        result = yield from group_bits_aggregation(
            env, group, tree, True, self.bit, PRACTICAL, tree.num_stages
        )
        env.decide((result.ones, result.zeros, result.operative))
        return None


def _adhoc(process, *args):
    """An unregistered spec running ``process(pid, n, *args)`` per pid
    through ``execute`` (budget 0 unless the call sets ``t``)."""
    return ProtocolSpec(
        "adhoc", "ad hoc harness processes",
        build=lambda config: (
            [process(pid, config.n, *args) for pid in range(config.n)], config.t
        ),
        default_t=lambda n, params: 0, sweepable=False, uses_inputs=False,
    )


def aggregation(sizes, silenced_sizes):
    """Figure 2: one tree aggregation per group size m, fault-free, then
    with the first m/8 members silenced."""
    values: dict = {}
    for m in sizes:
        result = execute(_adhoc(_Aggregator), n=m).result
        truth = (m // 2, (m + 1) // 2)
        _append(
            values, rounds=result.rounds,
            stage_rounds=3 * cached_bag_tree(tuple(range(m))).num_stages,
            bits=result.metrics.bits_sent,
            inexact_views=sum(
                view[:2] != truth for view in result.decisions.values()
            ),
        )
    values["bits_growth"] = values["bits"][-1] / values["bits"][0]
    values["size_growth_cubed"] = (sizes[-1] / sizes[0]) ** 3
    for m in silenced_sizes:
        silenced = max(1, m // 8)
        result = execute(
            _adhoc(_Aggregator), n=m, t=silenced,
            adversary=SilenceAdversary(range(silenced)), seed=m,
        ).result
        totals = [o + z for o, z, alive in result.decisions.values() if alive]
        _append(values, silenced=silenced,
                view_spread=max(totals) - min(totals),
                knocked=m - len(totals))
    return values


def _deterministic_splits(params, total, shift):
    """Count ``ones`` in 0..total where two coin-free views -- the counts and
    the counts with ``shift`` ones knocked out -- adopt different bits."""
    splits = 0
    for ones in range(total + 1):
        view_a = apply_vote_rule(ones, total - ones, params, CountingRandom(1))
        view_b = apply_vote_rule(
            max(0, ones - shift), total - ones, params, CountingRandom(2)
        )
        if not (view_a.used_coin or view_b.used_coin) and view_a.bit != view_b.bit:
            splits += 1
    return splits


def vote_rule(band_total, gap_total, n, t, ones):
    """Figure 3: the vote rule's band along the ratio axis, the splits the
    threshold gap allows under a total/10 knockout, and Algorithm 1's
    decision per initial number of ones."""
    bands = []
    for k in range(band_total + 1):
        out = apply_vote_rule(k, band_total - k, PRACTICAL, CountingRandom(k))
        bands.append(
            f"decide-{out.bit}" if out.decided
            else "coin" if out.used_coin else f"adopt-{out.bit}"
        )

    def first(band):
        return bands.index(band) if band in bands else len(bands)

    values = {
        "bands": bands,
        "decide0_first": first("decide-0"),
        "adopt0_first": first("adopt-0"),
        "coin_first": first("coin"),
        "adopt1_after_coin": bands[first("coin"):].count("adopt-1"),
        "decide1_last": max(
            (k for k, band in enumerate(bands) if band == "decide-1"),
            default=-1,
        ),
        "gap_splits": _deterministic_splits(
            PRACTICAL, gap_total, gap_total // 10
        ),
    }
    for k in ones:
        run = execute("algorithm1", [1] * k + [0] * (n - k), t=t, seed=k + 1)
        _append(values, decision=run.decision,
                random_bits=run.metrics.random_bits,
                fallback=run.ran_deterministic_fallback)
    return values


def _cells(protocol, n, seeds, adversary="none", **options):
    """The records of campaign cells: ``protocol`` on balanced inputs at
    ``n`` against a ``GALLERY`` adversary, one per seed."""
    return run_campaign(CampaignSpec(
        "report", protocol, ns=(n,), adversaries=(adversary,),
        seeds=tuple(seeds), options=options,
    ))


def _column(records, key):
    return [record[key] for record in records]


def whp_path(protocol, ns, seed, adversary="none"):
    """The whp fast path over ``ns``: the cell at ``seed + n`` and, only if
    it fell into the Dolev-Strong fallback, the cells at ``+ 7919 k`` for
    k = 1, 2 until one does not.  Returns the reported record per n (the
    last cell run) and every cell run, so a fallback rate and the fast-path
    values are read off the same cells."""
    reported, cells = [], []
    for n in ns:
        for k in range(3):
            (record,) = _cells(protocol, n, [seed + n + 7919 * k], adversary)
            cells.append(record)
            if not record["fallback"]:
                break
        reported.append(record)
    return reported, cells


def _first_fallback(cells, ns):
    """The fallback flag of the first cell at each n, before any retry."""
    return [next(c["fallback"] for c in cells if c["n"] == n) for n in ns]


def scaling(ns, seed, quiet_seed, unanimous_ns, unanimous_seed):
    """Theorem 1 over ``ns`` on the whp path (:func:`whp_path`): under the
    vote-balancing adversary, without one, and on unanimous inputs.  A
    run that does not fall back takes exactly ``schedule_rounds``,
    ``core_total_rounds(n) + 1``."""
    attacked, attacked_cells = whp_path("algorithm1", ns, seed, "balance")
    quiet, quiet_cells = whp_path("algorithm1", ns, quiet_seed)
    values = {
        name: _column(attacked, name)
        for name in ("t", "rounds", "bits", "random_bits", "fallback")
    }
    values.update(
        first_fallback=_first_fallback(attacked_cells, ns),
        quiet_rounds=_column(quiet, "rounds"),
        quiet_first_fallback=_first_fallback(quiet_cells, ns),
        schedule_rounds=[core_total_rounds(n, PRACTICAL) + 1 for n in ns],
        quiet_rounds_growth=quiet[-1]["rounds"] / quiet[0]["rounds"],
        n_growth=ns[-1] / ns[0],
    )
    values["rounds_slope"] = loglog_slope(ns, values["rounds"])
    values["bits_slope"] = loglog_slope(ns, values["bits"])
    values["random_bits_slope"] = loglog_slope(
        ns, [max(1, bits) for bits in values["random_bits"]]
    )
    for n in unanimous_ns:
        run = execute("algorithm1", [1] * n, seed=unanimous_seed)
        _append(values, unanimous_decision=run.decision,
                unanimous_random_bits=run.metrics.random_bits)
    return values


def lower_bound(ks, alphas, trials, talagrand_ns, talagrand_ts, floodmin,
                n, t, coins, seed, max_phases):
    """Theorem 2's pieces: Lemma 12's hide budgets (slope over the first
    alpha), Theorem 6 on threshold sets, a Lemma-13 bivalent input of
    ``FloodMinProtocol(*floodmin)`` at t=1, and T x (R+T) of the
    coin-throttled attack at (n, t)."""
    lemma12 = sweep_lemma12(ks, alphas, trials=trials)
    first = [p for p in lemma12 if p.alpha == alphas[0]]
    checks = verify_threshold_inequality(talagrand_ns, talagrand_ts)
    valency = classify_all_inputs(FloodMinProtocol(*floodmin), t=1)
    witness = valency.lemma13_witness()
    attack = measure_tradeoff_product(
        n, t, coins, seed=seed, max_phases=max_phases
    )
    return {
        "hide_budget": [p.measured_budget for p in lemma12],
        "lemma12_bound": [p.lemma12_bound for p in lemma12],
        "budget_slope": loglog_slope(
            [p.k for p in first], [max(1, p.measured_budget) for p in first]
        ),
        "talagrand_points": len(checks),
        "talagrand_violations": sum(not check.holds for check in checks),
        "talagrand_tightest": max(
            check.lhs / check.rhs for check in checks if check.rhs > 0
        ),
        "lemma13_witness": witness,
        "lemma13_witnessed": witness is not None,
        "lemma13_broken": len(valency.broken()),
        "attack_rounds": [p.rounds for p in attack],
        "attack_random_calls": [p.random_calls for p in attack],
        "attack_normalized": [p.normalized for p in attack],
        "attack_agreed": [p.agreement_ok for p in attack],
    }


def tradeoff(n, xs, seed, invariant_xs, invariant_seed, endpoint_seed):
    """Theorem 3's dial: Algorithm 4 at n per super-process count x; the
    T x R invariant over a second sweep; the x = 1 and x = n endpoints."""

    def sweep(xs, seed):
        return [_cells("tradeoff", n, [seed], x=x)[0] for x in xs]

    points = sweep(xs, seed)
    rounds = _column(points, "rounds")
    random_bits = _column(points, "random_bits")
    bits = _column(points, "bits")
    invariant = [
        p["rounds"] * max(1, p["random_bits"])
        for p in sweep(invariant_xs, invariant_seed)
    ]
    low, high = sweep([1, n], endpoint_seed)
    return {
        "rounds": rounds, "random_bits": random_bits, "bits": bits,
        "decision": _column(points, "decision"),
        "rounds_span": max(rounds) / rounds[0],
        "half_x1_random_bits": random_bits[0] // 2,
        "rounds_slope": loglog_slope(xs, rounds),
        "bits_spread": max(bits) / min(bits),
        "invariant": invariant,
        "invariant_spread": max(invariant) / min(invariant),
        "endpoint_rounds": [low["rounds"], high["rounds"]],
        "endpoint_random_bits": [low["random_bits"], high["random_bits"]],
        "endpoint_rounds_ratio": high["rounds"] / low["rounds"],
    }


def baselines(ns, seed, bits_seed, crossover_ns, crossover_seed):
    """Algorithm 1 (whp path) against Dolev-Strong and phase-king under
    full-budget silence; a bits sweep at a second seed; a crossover sweep
    against Dolev-Strong at t = n/4 (not a cell: its t is not the
    registry's default)."""

    def alg1(ns, seed):
        return whp_path("algorithm1", ns, seed)[0]

    def silenced(protocol, ns, seed):
        return [_cells(protocol, n, [seed + n], "silence")[0] for n in ns]

    def growth(points):
        return points[-1]["rounds"] / points[0]["rounds"]

    def ratio(numerators, denominators, field):
        return [a[field] / b[field] for a, b in zip(numerators, denominators)]

    ours, dolev, king = (
        alg1(ns, seed), silenced("dolev-strong", ns, seed),
        silenced("phase-king", ns, seed),
    )
    ours_bits, dolev_bits = alg1(ns, bits_seed), silenced("dolev-strong", ns, bits_seed)
    quarter = [
        execute(
            "dolev-strong", mixed_inputs(n), t=n // 4,
            adversary=SilenceAdversary(range(n // 4)), seed=crossover_seed + n,
        ).result.time_to_agreement()
        for n in crossover_ns
    ]
    return {
        "alg1_rounds": _column(ours, "rounds"),
        "ds_rounds": _column(dolev, "rounds"),
        "pk_rounds": _column(king, "rounds"),
        "alg1_growth": growth(ours), "ds_growth": growth(dolev),
        "pk_growth": growth(king),
        "ds_alg1_bits_ratio": ratio(dolev, ours, "bits"),
        "bits_ratio": ratio(dolev_bits, ours_bits, "bits"),
        "alg1_bits_slope": loglog_slope(ns, _column(ours_bits, "bits")),
        "ds_bits_slope": loglog_slope(ns, _column(dolev_bits, "bits")),
        "crossover_ratio": [
            point["rounds"] / rounds
            for point, rounds in zip(alg1(crossover_ns, crossover_seed), quarter)
        ],
    }


def lemma9(ns):
    """Lemma 9's anti-concentration bound, exactly, on the binomial grid."""
    checks = verify_lemma9(ns)
    return {
        "grid_points": len(checks),
        "violations": sum(not check.holds for check in checks),
    }


def amortization(single, grid, escalation):
    """Appendix B.3's doubling collectors; each argument is ``[n, t, seed]``
    (``grid`` a list of them)."""
    n, t, seed = single
    crash, omission = (
        measure_amortization(n, t, seed=seed)[label]
        for label in ("crash", "omission")
    )
    values = {
        "single_crash_responses": crash["responses_to_victims"],
        "single_omission_responses": omission["responses_to_victims"],
        "single_victim_requests": omission["victim_requests"],
    }
    for n, t, seed in grid:
        points = measure_amortization(n, t, seed=seed)
        _append(
            values, crash_responses=points["crash"]["responses_to_victims"],
            omission_responses=points["omission"]["responses_to_victims"],
            forced_bound=t * (n - t),
            victim_requests=points["omission"]["victim_requests"],
            full_sweep=n - 1,
        )
    n, t, seed = escalation
    points = measure_amortization(n, t, seed=seed)
    values["quorum_requests"] = points["none"]["victim_requests"]
    values["starved_requests"] = points["omission"]["victim_requests"]
    return values


def early_stopping(n, seed, skew_ones, balancer_seed, suppression_seeds):
    """The early-stopping variant against fixed-budget Algorithm 1 on four
    instances of rising hardness, then with faulty READY votes silenced."""
    mixed = mixed_inputs(n)
    cases = {
        "unanimous": ([1] * n, None),
        "skew": ([1 if pid < skew_ones else 0 for pid in range(n)], None),
        "balanced": (mixed, None),
        "balanced+balancer": (mixed, VoteBalancingAdversary(seed=balancer_seed)),
    }
    values: dict = {"cases": list(cases)}
    for inputs, adversary in cases.values():
        fixed = execute("algorithm1", inputs, params=PRACTICAL, seed=seed)
        adaptive = execute(
            "early-stopping", inputs, adversary=adversary, params=PRACTICAL,
            seed=seed,
        )
        exits = sorted({process.exited_epoch for process in adaptive.processes})
        _append(
            values, fixed_rounds=fixed.result.time_to_agreement(),
            adaptive_rounds=adaptive.result.time_to_agreement(),
            exit_epochs=exits, first_exit=exits[0],
            fixed_decision=fixed.decision, adaptive_decision=adaptive.decision,
            num_epochs=adaptive.processes[0].num_epochs,
        )
    values["unanimous_fixed_third"] = values["fixed_rounds"][0] / 3
    t = PRACTICAL.max_faults(n)
    for run_seed in suppression_seeds:
        run = execute(
            "early-stopping", [1] * n, t=t, adversary=SilenceAdversary(range(t)),
            params=PRACTICAL, seed=run_seed,
        )
        _append(values, suppressed_decision=run.decision,
                suppressed_exit_epochs=len({p.exited_epoch for p in run.processes}))
    return values


def _deliveries(result):
    return sorted(set(result.non_faulty_decisions().values()), key=str)


def trb(n, budgets, seed, silenced_t, silenced_seeds, crash_n, crash_t,
        faults, crash_seed):
    """Early-stopping TRB: fault-free rounds per budget t (sender 0 sends
    9), a silenced sender per seed, and crashes of the sender and then one
    relay per round (f in total, sender 0 sends 3)."""
    values: dict = {}
    for t in budgets:
        _append(values, fault_free_rounds=execute(
            "trb", n=n, sender=0, value=9, t=t, seed=seed,
        ).result.time_to_agreement())
    values["fault_free_distinct"] = len(set(values["fault_free_rounds"]))
    for run_seed in silenced_seeds:
        deliveries = _deliveries(execute(
            "trb", n=n, sender=0, value=9, t=silenced_t,
            adversary=SilenceAdversary([0]), seed=run_seed,
        ).result)
        _append(values, silenced_deliveries=deliveries,
                silenced_distinct=len(deliveries))
    for f in faults:
        adversary = (
            StaticCrashAdversary({k: [k] for k in range(f)}) if f else None
        )
        result = execute("trb", n=crash_n, sender=0, value=3, t=crash_t,
                         adversary=adversary, seed=crash_seed).result
        deliveries = _deliveries(result)
        _append(values, crash_rounds=result.time_to_agreement(),
                crash_deliveries=deliveries, crash_distinct=len(deliveries))
    return values


def epoch_budget(n, epochs, trials, seed):
    """Ablation of the epoch budget (Lemma 10): Dolev-Strong fallback rate
    on balanced inputs per number of epochs, with Wilson 95% intervals."""
    values: dict = {}
    first = seed * 1000 + 17
    for budget in epochs:
        records = _cells(
            "algorithm1", n, range(first, first + trials), num_epochs=budget
        )
        fallbacks = sum(_column(records, "fallback"))
        _append(values, fallbacks=fallbacks, fallback_rate=fallbacks / trials,
                interval=list(wilson_interval(fallbacks, trials)))
    return values


def threshold_gap(total, narrow):
    """Ablation of Figure 3's gap: deterministic adopt-splits under a
    4t-knockout (4/30 of the counts) for the paper's thresholds and for
    ``narrow`` = [one, zero, decide_hi, decide_lo] numerators."""
    one, zero, high, low = narrow
    narrowed = PRACTICAL.with_overrides(
        one_threshold_num=one, zero_threshold_num=zero,
        decide_hi_num=high, decide_lo_num=low,
    )
    shift = 4 * total // 30
    return {
        "paper_splits": _deterministic_splits(PRACTICAL, total, shift),
        "narrow_splits": _deterministic_splits(narrowed, total, shift),
    }


class _Spreader(SyncProcess):
    """Runs GroupBitsSpreading with every process its own group; decides
    how many groups' counts it learned."""

    def __init__(self, pid, n, graph, rounds):
        super().__init__(pid, n)
        self.graph = graph
        self.rounds = rounds

    def program(self, env):
        state = SpreadingState(
            neighbors=tuple(sorted(self.graph.neighbors(self.pid)))
        )
        result = yield from group_bits_spreading(
            env, state, group_count=self.n, my_group=self.pid,
            my_counts=(1, 0), rounds=self.rounds, degree_threshold=1,
        )
        env.decide(sum(1 for pack in result.packs if pack is not None))
        return None


def spreading_rounds(n, delta, seed, rounds):
    """Ablation of the spreading budget (Lemma 6): the fraction of the n x n
    (process, group) slots learned system-wide per number of gossip rounds
    on a Delta-regular-ish overlay."""
    graph = spreading_graph(n, delta, seed=seed)
    coverage = []
    for budget in rounds:
        result = execute(_adhoc(_Spreader, graph, budget), n=n, seed=seed).result
        coverage.append(sum(result.decisions.values()) / (n * n))
    return {"coverage": coverage}


def overlay_degree(n, t, omission, trials, seed, degrees):
    """Ablation of the overlay degree (Theorem 4 -> Lemma 7): non-faulty
    inoperative processes summed over ``trials`` runs under random omission
    per ``[delta_factor, delta_min]``."""
    values: dict = {}
    for factor, minimum in degrees:
        params = PRACTICAL.with_overrides(delta_factor=factor, delta_min=minimum)
        inoperative = 0
        for trial in range(trials):
            run = execute(
                "algorithm1", mixed_inputs(n), t=t, params=params,
                adversary=RandomOmissionAdversary(omission, seed=trial),
                seed=seed + trial,
            )
            run.decision  # raises on a disagreement
            inoperative += sum(
                1 for process in run.processes
                if not process.operative and process.pid not in run.result.faulty
            )
        _append(values, delta=params.delta(n), nf_inoperative=inoperative)
    return values


def multivalued(n, widths, seed, trials, proposal_seed, validity_seed):
    """Multi-valued consensus: rounds per value width on pid-valued inputs;
    then random 4-bit proposals, odd trials with one process silenced."""
    values: dict = {}
    for width in widths:
        result = execute(
            "multivalued", [pid % (1 << width) for pid in range(n)],
            value_bits=width,
            seed=seed,
        ).result
        _append(values, rounds=result.time_to_agreement(),
                bits=result.metrics.bits_sent)
    per_bit = [r / w for r, w in zip(values["rounds"], widths)]
    values["per_bit_spread"] = max(per_bit) / min(per_bit)
    rng = random.Random(proposal_seed)
    for trial in range(trials):
        proposals = [rng.randrange(1, 16) for _ in range(n)]
        decision = execute(
            "multivalued", proposals, value_bits=4, t=1, seed=validity_seed + trial,
            adversary=SilenceAdversary([trial]) if trial % 2 else None,
        ).result.agreement_value()
        _append(values, decision=decision,
                decided_a_proposal=decision in proposals)
    return values


def conformance(protocols, adversaries, seeds):
    """Section 2's definition, checked in-run: the property battery
    (:func:`repro.replay.check_consensus_protocol`) on each ``[name, n,
    t]`` under the named ``GALLERY`` adversaries plus ``chaos``."""
    gallery = {
        **GALLERY, "chaos": lambda n, t, seed: ChaosAdversary(seed=seed),
    }
    chosen = {name: gallery[name] for name in adversaries}
    values: dict = {"failing": []}
    for name, n, t in protocols:
        failing = check_consensus_protocol(ExecutionConfig(name, n=n, t=t), chosen, seeds)
        scenarios = len(SCENARIOS) if protocol_spec(name).uses_inputs else 1
        _append(values, cells=scenarios * len(chosen) * len(seeds), violations=len(failing))
        values["failing"] += [
            f"{name}: {r.expected_failure['invariant']} ({r.note})" for r in failing
        ]
    unlisted = set(available_protocols(sweepable=True)) - {p[0] for p in protocols}
    values["uncovered"] = len(unlisted)
    return values


MEASURES = {
    function.__name__: function
    for function in (
        table1, overlay, aggregation, vote_rule, scaling, lower_bound,
        tradeoff, baselines, lemma9, amortization, early_stopping, trb,
        epoch_budget, threshold_gap, spreading_rounds, overlay_degree,
        multivalued, conformance,
    )
}


# ---------------------------------------------------------------------------
# The reader: spec -> values -> criteria -> verdict -> EXPERIMENTS.md.
# ---------------------------------------------------------------------------

SPECS = Path("experiments")
OUTPUT = Path("EXPERIMENTS.md")
_OPS = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    ">=": operator.ge, ">": operator.gt,
}
_ORDERS = {"nondecreasing": operator.le, "nonincreasing": operator.ge}
_REF = re.compile(r"(\w+)(?:\[(-?\d+)\]|\[(-?\d*):(-?\d*)\])?")


def _plain(value):
    """JSON-ready and byte-stable across hosts: floats keep 6 significant
    digits, tuples become lists."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _resolve(ref, values):
    if not isinstance(ref, str):
        return ref
    match = _REF.fullmatch(ref)
    if match is None or match[1] not in values:
        raise ValueError(f"no value named {ref!r}")
    value = values[match[1]]
    index, start, stop = match[2], match[3], match[4]
    try:
        if index is not None:
            return value[int(index)]
        if start is not None:
            return value[int(start) if start else None:int(stop) if stop else None]
    except (IndexError, TypeError) as exc:
        raise ValueError(f"{ref!r}: {exc}") from None
    return value


def _holds(criterion, values):
    if len(criterion) == 2 and criterion[1] in _ORDERS:
        series, order = _resolve(criterion[0], values), _ORDERS[criterion[1]]
        if not isinstance(series, list):
            raise ValueError("an order needs a series")
        pairs = list(zip(series, series[1:]))
    elif len(criterion) == 3 and criterion[1] in _OPS:
        left, right = (_resolve(ref, values) for ref in criterion[::2])
        order = _OPS[criterion[1]]
        if isinstance(left, list) or isinstance(right, list):
            size = len(left) if isinstance(left, list) else len(right)
            left, right = (
                side if isinstance(side, list) else [side] * size
                for side in (left, right)
            )
            if len(left) != len(right):
                raise ValueError("series of different lengths")
        else:
            left, right = [left], [right]
        pairs = list(zip(left, right))
    else:
        raise ValueError("not [value, op, value] or [series, order]")
    if not pairs:
        raise ValueError("empty series: the check would be vacuous")
    return all(order(a, b) for a, b in pairs)


def _criterion_text(criterion) -> str:
    return " ".join(
        part if isinstance(part, str) else json.dumps(part)
        for part in criterion
    )


def evaluate(spec: dict, values: dict) -> dict:
    """Every criterion's outcome and the verdict, from the values alone."""
    outcomes = {}
    for criterion in spec["criteria"]:
        text = _criterion_text(criterion)
        try:
            outcomes[text] = _holds(criterion, values)
        except ValueError as exc:
            raise ValueError(f"{spec['id']}: criterion {text!r}: {exc}") from None
    verdict = "holds" if outcomes and all(outcomes.values()) else "VIOLATED"
    return {"criteria": outcomes, "verdict": verdict}


def _measured(spec: dict, values: dict) -> str:
    """The spec's ``measured`` sentence over its arguments and values."""
    return spec["measured"].format_map({**spec["args"], **values})


def run_spec(spec: dict) -> dict:
    """Execute a spec's measure; its rounded values, outcomes and verdict."""
    if spec["measure"] not in MEASURES:
        raise ValueError(f"{spec['id']}: no measure {spec['measure']!r}")
    values = {
        name: _plain(value)
        for name, value in MEASURES[spec["measure"]](**spec["args"]).items()
    }
    _measured(spec, values)  # a template naming a missing value fails here
    return {"values": values, **evaluate(spec, values)}


def load_specs(root: Path) -> dict:
    """``{id: (spec, sha256 of the spec's bytes)}`` in id order."""
    specs = {}
    for path in sorted(root.glob("*.json")):
        if path.name.endswith(".result.json"):
            continue
        raw = path.read_bytes()
        spec = json.loads(raw)
        if spec["id"] != path.stem:
            raise ValueError(f"{path}: id {spec['id']!r} is not the file name")
        specs[spec["id"]] = (spec, hashlib.sha256(raw).hexdigest())
    return specs


def result_path(root: Path, experiment_id: str) -> Path:
    return root / f"{experiment_id}.result.json"


def _dump(document: dict) -> str:
    """JSON with one line per header field, value and criterion, so a
    changed number is a one-line diff."""

    def block(mapping: dict, pad: str) -> str:
        items = ",\n".join(f"{pad}  {json.dumps(k)}: {v}" for k, v in mapping.items())
        return f"{{\n{items}\n{pad}}}"

    return block({
        key: block({name: json.dumps(v) for name, v in value.items()}, "  ")
        if isinstance(value, dict) else json.dumps(value)
        for key, value in document.items()
    }, "") + "\n"


def _header(sha256: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "date": time.strftime("%Y-%m-%d"),
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cores": os.cpu_count(),
        "spec_sha256": sha256,
    }


INTRO = """\
# EXPERIMENTS — paper vs. measured

Generated by `python -m repro.cli report` from the committed
`experiments/<id>.result.json` files; do not edit by hand.  Each
experiment is one spec, `experiments/<id>.json`, which fixes the measure,
its arguments (sizes, seeds, trials, adversaries) and the pass/fail
criteria before anything runs.  `report --only ID[,ID...]` re-runs some
specs; CI re-runs all of them and fails if a result or this file changes.

The paper is pure theory: its artifacts are Table 1, Figures 1-3 and the
theorem statements.  Absolute numbers are *not* expected to match its
asymptotic expressions (constants such as `Delta = 832 log n` exist to
close union bounds and are not simulable); the criteria are **shapes** —
log-log slopes, who-wins orderings, ratio trends — and the **exact**
inequalities the lemmas assert.  See DESIGN.md §2.

* Runs use `ProtocolParams.practical()` and balanced inputs unless a spec
  says otherwise.  *Time* is rounds until the last non-faulty process
  decides; *bits* are metered at send time; *randomness* at the
  per-process sources.
* Scaling sweeps measure the whp fast path on campaign cells: the cell at
  `seed + n` is reported unless it fell into the Dolev-Strong fallback;
  then the cells at `seed + n + 7919k` (k = 1, 2) run, and the first that
  does not fall back (or the last) is reported with its fallback flag
  (`whp_path`, which also returns every cell it ran).
* Floats are stored with 6 significant digits; criteria are judged on the
  stored values.
* A VIOLATED verdict is reported with a shrunk `ExecutionRecipe`
  (`repro.replay`; `python -m repro.cli replay <recipe.json>`).
"""

OUTRO = """\
Known deviations, all documented in DESIGN.md: practical constants; the
relay-chain replacement for Dolev-Strong signatures; the fallback rate at
small n (the truncated epoch budget makes the whp guarantee a few-percent
guarantee at n ~ 100, which the safety rule and the deterministic fallback
absorb at the cost of O(n^2 t) bits in those runs).
"""


def _ascii_table(rows) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    border = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = [
        "| " + " | ".join(cell.ljust(w) for cell, w in zip(row, widths)) + " |"
        for row in rows
    ]
    return "\n".join([border, lines[0], border, *lines[1:], border])


def render(pairs: list) -> str:
    """EXPERIMENTS.md from ``[(spec, result), ...]``."""
    held = [result["verdict"] == "holds" for _, result in pairs]
    outcomes = [ok for _, r in pairs for ok in r["criteria"].values()]
    lines = [
        INTRO,
        "| Experiment | Artifact | Criteria | Verdict |",
        "|---|---|---|---|",
    ]
    for spec, result in pairs:
        checks = result["criteria"].values()
        lines.append(
            f"| `{spec['id']}` | {spec['artifact']} | "
            f"{sum(checks)}/{len(checks)} | {result['verdict']} |"
        )
    for spec, result in pairs:
        criteria = "; ".join(
            f"`{text}`" + ("" if ok else " **FAILED**")
            for text, ok in result["criteria"].items()
        )
        lines += [
            "", f"## {spec['id']} — {spec['artifact']}", "",
            f"**Paper claim.** {spec['claim']}", "",
            f"**Measured.** {_measured(spec, result['values'])}", "",
            f"**Criteria** (`experiments/{spec['id']}.json`). {criteria}", "",
            f"**Verdict.** {result['verdict']}",
        ]
        if "table" in spec:
            table = _ascii_table(result["values"][spec["table"]])
            lines += ["", "```", table, "```"]
    lines += [
        "", "## Summary", "",
        f"{sum(held)} of {len(held)} experiments hold; {sum(outcomes)} of "
        f"{len(outcomes)} criteria hold.", "", OUTRO,
    ]
    return "\n".join(lines)


def write_report(only: list[str] | None = None) -> int:
    """Run the selected specs (all by default), rewrite each result file
    whose content changed, and render EXPERIMENTS.md from every result.
    Exit status: 0 when every verdict holds, 1 otherwise, 2 for an unknown
    id."""
    specs = load_specs(SPECS)
    unknown = sorted(set(only or ()) - set(specs))
    if unknown:
        print(f"error: no spec for {', '.join(unknown)} in {SPECS}/")
        return 2
    for experiment_id in only or specs:
        spec, sha256 = specs[experiment_id]
        started = time.perf_counter()
        result = run_spec(spec)
        path = result_path(SPECS, experiment_id)
        old = json.loads(path.read_text()) if path.exists() else {}
        if old.get("experiment", {}).get("spec_sha256") != sha256 or any(
            old.get(key) != value for key, value in result.items()
        ):
            path.write_text(_dump({"experiment": _header(sha256), **result}))
        print(f"{experiment_id}: {result['verdict']} "
              f"({time.perf_counter() - started:.1f} s)")
    pairs = []
    for experiment_id, (spec, _) in specs.items():
        path = result_path(SPECS, experiment_id)
        if not path.exists():
            print(f"error: {path} is missing; run report --only {experiment_id}")
            return 2
        pairs.append((spec, json.loads(path.read_text())))
    OUTPUT.write_text(render(pairs))
    print(f"wrote {OUTPUT} ({len(pairs)} experiments)")
    return 0 if all(result["verdict"] == "holds" for _, result in pairs) else 1
