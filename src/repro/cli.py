"""Command-line interface: ``repro-consensus``::

    repro-consensus run --n 128 --adversary balance
    repro-consensus campaign run --ns 64,100 --adversaries none,silence
    repro-consensus replay counterexamples/<recipe>.json
    repro-consensus report --only E-TH3      # experiments/E-TH3.json
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from .adversary import GALLERY
from .harness import available_protocols, execute, protocol_spec
from .params import ProtocolParams
from .transport import available_transports


def _positive_int(text: str) -> int:
    """argparse ``type=``: an integer n ≥ 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer: {text!r}")
    return int(text)


def _int_list(item: Callable[[str], int]) -> Callable[[str], list[int]]:
    """argparse ``type=``: a non-empty comma list, each part read by *item*."""

    def parse(text: str) -> list[int]:
        try:
            values = [item(part) for part in text.split(",") if part]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected integers: {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one value: {text!r}")
        return values

    return parse


def _cmd_run(args: argparse.Namespace) -> int:
    params = ProtocolParams.practical()
    n = args.n
    spec = protocol_spec(args.protocol)
    t = args.t if args.t is not None else spec.campaign_t(n, params)
    inputs = [pid % 2 for pid in range(n)] if args.inputs == "mixed" else (
        [int(args.inputs)] * n
    )
    adversary = GALLERY[args.adversary](n, t, args.seed)
    try:
        run = execute(
            spec,
            inputs,
            t=t,
            adversary=adversary,
            seed=args.seed,
            transport=args.transport,
        )
    except ValueError as exc:
        # Raised by the checks before round 0: the engine's 0 <= t < n and
        # each builder's own fault budget (Algorithm 1's t < n/30, say).
        args.run_parser.error(str(exc))
    metrics = run.metrics
    report = run.result.report
    if args.json:
        import json

        from .runtime import result_to_dict

        payload = result_to_dict(run.result)
        payload["protocol"] = spec.name
        payload["decision"] = run.decision
        payload["time_to_agreement"] = run.result.time_to_agreement()
        payload["fallback"] = run.ran_deterministic_fallback
        payload["report"] = report.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"protocol      : {spec.name}")
    print(f"decision      : {run.decision}")
    print(f"time (rounds) : {run.result.time_to_agreement()}")
    print(f"comm. bits    : {metrics.bits_sent}")
    print(f"messages      : {metrics.messages_sent}")
    print(f"random bits   : {metrics.random_bits}")
    print(f"faulty        : {sorted(run.result.faulty)}")
    print(f"fallback      : {run.ran_deterministic_fallback}")
    from .analysis.sparkline import render_series

    print(render_series("traffic/round", metrics.messages_per_round, width=64))
    print("phases (s)    : " + " ".join(
        f"{phase}={seconds:.4f}" for phase, seconds in report.seconds.items()
    ))
    return 0


def _campaign_spec_from_args(args: argparse.Namespace):
    from .analysis.campaign import CampaignSpec

    options = {"x": args.x} if args.x is not None else {}
    try:
        return CampaignSpec(
            name=args.name,
            protocol=args.protocol,
            ns=args.ns,
            adversaries=args.adversaries.split(","),
            seeds=args.seeds,
            options=options,
            transport=args.transport,
        )
    except ValueError as exc:  # e.g. an unknown adversary
        args.grid_parser.error(str(exc))


def _print_campaign_summary(records) -> None:
    from .analysis.campaign import summarize_campaign

    for row in summarize_campaign(records):
        print(
            f"  {row['protocol']} n={row['n']:>4} {row['adversary']:>8}: "
            f"rounds={row['mean_rounds']:.1f} bits={row['mean_bits']:.0f} "
            f"rbits={row['mean_random_bits']:.1f} "
            f"fallback={row['fallback_rate']:.2f}"
        )


def _print_campaign_records(records, output) -> None:
    from .analysis.campaign import save_campaign

    for rec in records:
        if rec.get("failed"):
            print(
                f"  FAILED {rec['protocol']} n={rec['n']} {rec['adversary']} "
                f"seed={rec['seed']}: {rec['invariant']} -> {rec['recipe']}"
            )
    if output is not None:
        save_campaign(records, output)
        print(f"wrote {output} ({len(records)} records)")
    _print_campaign_summary(records)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    import json

    from pathlib import Path

    from .analysis.campaign import run_campaign
    from .fabric import open_cache

    spec = _campaign_spec_from_args(args)
    cache = open_cache(args.cache)
    if args.journal is not None and Path(args.journal).exists():
        print(f"resuming from {args.journal}")
    computed: list[dict] = []
    records = run_campaign(
        spec,
        resume=args.journal,
        jobs=args.jobs,
        journal=args.journal,
        record_failures=args.record_failures,
        cache=cache,
        on_record=computed.append,
    )
    _print_campaign_records(records, args.output)
    if cache is not None:
        stats = cache.stats.as_dict()
        print(
            f"cache: {stats['hits']} hits, {len(computed)} computed, "
            f"hit rate {stats['hit_rate']:.2f}"
        )
        if args.cache_stats is not None:
            payload = {
                "spec": spec.name,
                "cells": len(records),
                "computed": len(computed),
                "resumed": len(records) - len(computed) - stats["hits"],
                **stats,
            }
            with open(args.cache_stats, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.cache_stats}")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    """Journal + cache standing for a spec — reads only, never executes."""
    import json

    from .analysis.campaign import resolve
    from .fabric import CellId

    spec = _campaign_spec_from_args(args)
    results, pending = resolve(spec, cache=args.cache, resume=args.journal)
    records = [record for _, record in results.values()]
    missing = [str(cell) for _, cell in pending]
    states = {"journal": 0, "cache": 0, "missing": len(missing)}
    for source, _ in results.values():
        states[source] += 1
    total = len(results) + len(missing)
    if args.json:
        payload = {
            "spec": spec.name,
            "cells": total,
            **states,
            "missing_cells": missing,
            "records": records,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"campaign      : {spec.name} ({total} cells)")
        print(f"in journal    : {states['journal']}")
        print(f"in cache      : {states['cache']}")
        print(f"missing       : {states['missing']}")
        for source, record in results.values():
            print(f"  {source:<7} {CellId.from_record(record)}")
        for cell in missing:
            print(f"  MISSING {cell}")
        _print_campaign_summary(records)
    return 1 if missing else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .replay import load_recipe, replay, save_recipe, shrink_recipe

    try:
        recipe = load_recipe(args.recipe)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load recipe {args.recipe}: {exc}")
        return 2
    kind = "failing" if recipe.failing else "passing"
    print(
        f"recipe        : {args.recipe} ({kind})"
        + (f" — {recipe.note}" if recipe.note else "")
    )
    print(
        f"protocol      : {recipe.config.protocol} n={recipe.config.n} "
        f"t={recipe.config.t} seed={recipe.config.seed}"
    )
    print(
        f"schedule      : {len(recipe.actions)} rounds, "
        f"{recipe.total_corruptions()} corruptions, "
        f"{recipe.total_omissions()} omissions"
    )
    try:
        report = replay(recipe)
    except ValueError as exc:
        # e.g. the recipe names a protocol this process has not
        # registered (test-only plants live in their test modules).
        print(f"error: {exc}")
        return 2
    print(f"verdict       : {report.summary()}")
    if args.shrink and recipe.failing:
        result = shrink_recipe(recipe)
        out = Path(args.recipe).with_suffix(".shrunk.json")
        save_recipe(result.recipe, out)
        print(
            f"shrunk        : {result.recipe.total_omissions()} omissions / "
            f"{result.recipe.total_corruptions()} corruptions "
            f"({result.replays} replays) -> {out}"
        )
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import write_report

    return write_report(args.only.split(",") if args.only else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-consensus",
        description=(
            "Nearly-optimal consensus tolerating adaptive omissions "
            "(PODC 2024) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="run one registered protocol once (default: Algorithm 1)"
    )
    run_parser.add_argument("--n", type=_positive_int, default=128)
    run_parser.add_argument("--t", type=int, default=None)
    run_parser.add_argument(
        "--protocol", default="algorithm1",
        choices=list(available_protocols(sweepable=True)),
    )
    run_parser.add_argument(
        "--inputs", default="mixed", choices=("mixed", "0", "1"),
        help="balanced bits (mixed) or unanimous 0 / 1",
    )
    run_parser.add_argument(
        "--adversary", default="none", choices=sorted(GALLERY)
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--json", action="store_true",
        help="emit the full execution result as JSON",
    )
    run_parser.add_argument(
        "--transport", default=None, choices=list(available_transports()),
        help="where processes execute: in-process (default) or real OS "
        "worker processes over localhost TCP",
    )
    run_parser.set_defaults(func=_cmd_run, run_parser=run_parser)

    campaign_parser = sub.add_parser(
        "campaign",
        help="cached grid sweeps: run | status",
        description=(
            "Sweep a (protocol, n, adversary, seed) grid.  Cells are "
            "identified by content digest "
            "(CellId) and served from the --cache store when already "
            "computed."
        ),
    )

    def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--name", default="campaign")
        parser.add_argument(
            "--protocol", default="algorithm1",
            choices=list(available_protocols(sweepable=True)),
        )
        parser.set_defaults(grid_parser=parser)
        parser.add_argument("--ns", default="64,100", type=_int_list(_positive_int))
        parser.add_argument("--adversaries", default="none,silence")
        parser.add_argument("--seeds", default="0,1", type=_int_list(int))
        parser.add_argument(
            "--x", type=int, default=None,
            help="tradeoff super-process count (stored in the spec options)",
        )
        parser.add_argument(
            "--transport", default=None,
            choices=list(available_transports()),
            help="transport axis (where processes execute); part of cell "
            "identity when given",
        )
        parser.add_argument(
            "--cache", default=None, metavar="DIR",
            help="content-addressed cell cache: hits are served without "
            "executing, newly computed cells are stored for every later "
            "campaign or invocation",
        )

    def _add_run_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--output", default="campaign.json")
        parser.add_argument(
            "--jobs", type=_positive_int, default=1,
            help="worker processes for the grid (1 = in-process serial); "
            "each idle worker takes the largest-n cell left",
        )
        parser.add_argument(
            "--journal", default=None, metavar="PATH",
            help="append-only JSONL journal: newly computed cells stream "
            "to it and are reused on restart",
        )
        parser.add_argument(
            "--record-failures", default=None, metavar="DIR",
            help="run cells through the replay recorder with invariants "
            "on; violating cells save an ExecutionRecipe here (and into "
            "the cache) instead of aborting the sweep",
        )
        parser.add_argument(
            "--cache-stats", default=None, metavar="PATH",
            help="write hit/miss/computed accounting JSON after the run",
        )

    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", metavar="{run,status}",
        required=True,
    )
    campaign_run = campaign_sub.add_parser(
        "run", help="execute the grid (cache and journal hits are reused; "
        "an interrupted sweep continues from its --journal)"
    )
    _add_grid_flags(campaign_run)
    _add_run_flags(campaign_run)
    campaign_run.set_defaults(func=_cmd_campaign_run)

    campaign_status = campaign_sub.add_parser(
        "status",
        help="journal + cache standing for a spec (reads only, no runs; "
        "exit 1 when any cell is missing)",
    )
    _add_grid_flags(campaign_status)
    campaign_status.add_argument(
        "--journal", default=None, metavar="PATH",
        help="JSONL journal to count completed cells from",
    )
    campaign_status.add_argument(
        "--json", action="store_true",
        help="print the counts, the missing cells and the hit records",
    )
    campaign_status.set_defaults(func=_cmd_campaign_status)

    replay_parser = sub.add_parser(
        "replay",
        help="re-execute a recorded ExecutionRecipe and verify the outcome",
    )
    replay_parser.add_argument("recipe", help="path to a recipe JSON")
    replay_parser.add_argument(
        "--shrink", action="store_true",
        help="minimize a failing recipe's schedule and write it back "
        "next to the input as <name>.shrunk.json",
    )
    replay_parser.set_defaults(func=_cmd_replay)

    report_parser = sub.add_parser(
        "report",
        help="run the experiments/<id>.json specs, update their result "
        "files and re-render EXPERIMENTS.md (in the working directory)",
    )
    report_parser.add_argument(
        "--only", default=None, metavar="ID[,ID...]",
        help="run only these specs; EXPERIMENTS.md is still rendered from "
        "every committed result",
    )
    report_parser.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
