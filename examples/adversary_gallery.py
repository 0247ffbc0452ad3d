"""Adversary gallery: how different adaptive strategies stress Algorithm 1.

Runs the same 256-process consensus against every implemented adversary and
compares cost and the operative/inoperative dynamics the paper's analysis
revolves around:

* faulty processes can *stay operative* (random light omissions rarely knock
  anyone below the Delta/3 threshold);
* non-faulty processes can be *driven inoperative* (group knockout corrupts
  a majority of one sqrt(n)-group, starving the survivors' relay quorum);
* the vote balancer maximizes epochs by silencing the leading bit's holders.

Run:  python examples/adversary_gallery.py
"""

from __future__ import annotations

from repro import ProtocolParams, execute
from repro.adversary import (
    GroupKnockoutAdversary,
    RandomOmissionAdversary,
    SilenceAdversary,
    StaticCrashAdversary,
    VoteBalancingAdversary,
)
from repro.core import cached_sqrt_partition

N = 256


def main() -> None:
    params = ProtocolParams.practical()
    t = params.max_faults(N)
    inputs = [pid % 2 for pid in range(N)]
    partition = cached_sqrt_partition(N)
    first_group = partition.group_members(0)

    gallery = [
        ("none", None),
        ("silence-all-budget", SilenceAdversary(range(t))),
        ("staggered-crashes", StaticCrashAdversary(
            {round_no: [round_no] for round_no in range(0, 4 * t, 4)}
        )),
        ("random-omissions", RandomOmissionAdversary(0.6, seed=1)),
        ("group-knockout", GroupKnockoutAdversary(first_group)),
        ("vote-balancer", VoteBalancingAdversary(seed=3)),
    ]

    print(f"Algorithm 1 on n = {N}, t = {t}, balanced inputs\n")
    print(f"{'adversary':>20} {'decision':>8} {'rounds':>7} {'Mbits':>7} "
          f"{'rbits':>6} {'faulty':>7} {'inoper.':>8} {'fallback':>9}")

    for name, adversary in gallery:
        run = execute(
            "algorithm1", inputs, t=t, adversary=adversary, params=params, seed=9
        )
        inoperative = sum(
            1 for process in run.processes if not process.operative
        )
        non_faulty_inoperative = sum(
            1
            for process in run.processes
            if not process.operative and process.pid not in run.result.faulty
        )
        print(
            f"{name:>20} {run.decision:>8} "
            f"{run.result.time_to_agreement():>7} "
            f"{run.metrics.bits_sent / 1e6:>7.2f} "
            f"{run.metrics.random_bits:>6} "
            f"{len(run.result.faulty):>7} "
            f"{inoperative:>4}/{non_faulty_inoperative:<3} "
            f"{str(run.ran_deterministic_fallback):>9}"
        )

    print("\ninoper. column = total inoperative / non-faulty inoperative:")
    print("the partition is NOT the faulty/non-faulty partition — exactly "
          "the paper's point.")


if __name__ == "__main__":
    main()
