"""Execution forensics: reading one consensus run round by round.

Runs Algorithm 1 under a staged adversary (silence early, adaptive
vote-balancing late) and reconstructs the story of the run from its
:class:`~repro.runtime.RunReport` (``run.result.report``): when the
adversary struck, how traffic pulsed through the epoch phases, and where
the time went.  The operative population is protocol state, not part of
the engine's report, so a ten-line observer samples it.

Run:  python examples/trace_inspection.py
"""

from __future__ import annotations

from repro.adversary import (
    SequentialAdversary,
    SilenceAdversary,
    VoteBalancingAdversary,
)
from repro.core import epoch_rounds
from repro.harness import execute
from repro.params import ProtocolParams
from repro.runtime import RoundObserver

N = 96


class OperativeCount(RoundObserver):
    """(round, number of operative processes) at the end of each round."""

    def __init__(self) -> None:
        self.series: list[tuple[int, int]] = []

    def on_round_end(self, round_no, network) -> None:
        operative = sum(p.state.operative for p in network.processes)
        self.series.append((round_no, operative))


def main() -> None:
    params = ProtocolParams.practical()
    t = params.max_faults(N)
    adversary = SequentialAdversary(
        [SilenceAdversary([0]), VoteBalancingAdversary(seed=1)],
        boundaries=[20],
    )
    operative = OperativeCount()
    run = execute(
        "algorithm1",
        [pid % 2 for pid in range(N)],
        t=t,
        adversary=adversary,
        params=params,
        seed=5,
        observers=[operative],
    )
    result, report = run.result, run.result.report
    decision = result.agreement_value()

    print(f"n={N}, t={t}: decided {decision} after "
          f"{result.time_to_agreement()} rounds\n")

    print("adversary timeline:")
    for pid, round_no in sorted(
        report.corruption_rounds.items(), key=lambda item: (item[1], item[0])
    ):
        print(f"  round {round_no:>3}: corrupted process {pid}")
    print(f"  total omissions: {sum(report.omitted_per_round)}\n")

    per_epoch = epoch_rounds(N, params)
    print(f"traffic pulse (epoch = {per_epoch} rounds: group-relay phase, "
          "then the denser spreading gossip):")
    traffic = report.metrics.messages_per_round
    for start in range(0, min(len(traffic), 2 * per_epoch), per_epoch):
        window = traffic[start:start + per_epoch]
        bar_scale = max(window) or 1
        print(f"  epoch starting round {start}:")
        for offset, messages in enumerate(window):
            bar = "#" * round(30 * messages / bar_scale)
            print(f"    r{start + offset:>3} {messages:>6} {bar}")
        print()

    print("operative population over time:")
    series = operative.series
    for round_no, count in series[:: max(1, len(series) // 10)]:
        print(f"  round {round_no:>3}: {count} operative")

    first = min(report.decision_rounds.values())
    print(f"\nfirst decisions in round {first}; "
          f"{len(report.decision_rounds)} processes decided in total")
    print("phases (s): " + " ".join(
        f"{phase}={seconds:.3f}" for phase, seconds in report.seconds.items()
    ))


if __name__ == "__main__":
    main()
