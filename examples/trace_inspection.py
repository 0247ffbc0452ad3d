"""Execution forensics: tracing one consensus run round by round.

Attaches a :class:`TraceRecorder` to a consensus execution under a staged
adversary (silence early, adaptive vote-balancing late) and reconstructs the
story of the run: when the adversary struck, how traffic pulsed through the
epoch phases, how the operative population shrank, and when each process
decided.

Run:  python examples/trace_inspection.py
"""

from __future__ import annotations

from repro.adversary import (
    SequentialAdversary,
    SilenceAdversary,
    VoteBalancingAdversary,
)
from repro.core import build_processes, epoch_rounds
from repro.params import ProtocolParams
from repro.runtime import SyncNetwork, TraceRecorder

N = 96


def main() -> None:
    params = ProtocolParams.practical()
    t = params.max_faults(N)
    adversary = SequentialAdversary(
        [SilenceAdversary([0]), VoteBalancingAdversary(seed=1)],
        boundaries=[20],
    )

    processes = build_processes(
        [pid % 2 for pid in range(N)], t=t, params=params
    )
    recorder = TraceRecorder(sample_every=1)
    # This example deliberately drives the raw engine to show
    # TraceRecorder.attach(); protocols registered with the harness
    # should pass observers to repro.harness.execute() instead.
    network = recorder.attach(
        SyncNetwork(processes, adversary=adversary, t=t, seed=5)
    )
    result = network.run()
    decision = result.agreement_value()

    print(f"n={N}, t={t}: decided {decision} after "
          f"{result.time_to_agreement()} rounds\n")

    print("adversary timeline:")
    for pid, round_no in sorted(recorder.corruption_rounds().items()):
        print(f"  round {round_no:>3}: corrupted process {pid}")
    print(f"  total omissions: {recorder.total_omissions()}\n")

    per_epoch = epoch_rounds(N, params)
    print(f"traffic pulse (epoch = {per_epoch} rounds: group-relay phase, "
          "then the denser spreading gossip):")
    profile = recorder.traffic_profile()
    for start in range(0, min(len(profile), 3 * per_epoch), per_epoch):
        window = [messages for _, messages in profile[start:start + per_epoch]]
        bar_scale = max(window) or 1
        print(f"  epoch starting round {start}:")
        for offset, messages in enumerate(window):
            bar = "#" * round(30 * messages / bar_scale)
            print(f"    r{start + offset:>3} {messages:>6} {bar}")
        print()

    print("operative population over time:")
    series = recorder.operative_series()
    for round_no, count in series[:: max(1, len(series) // 10)]:
        print(f"  round {round_no:>3}: {count} operative")

    decided = recorder.decision_rounds()
    if decided:
        first = min(decided.values())
        print(f"\nfirst decisions observed in round {first}; "
              f"{len(result.decision_rounds)} processes decided in total")


if __name__ == "__main__":
    main()
