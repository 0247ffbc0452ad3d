"""Distributed-ledger scenario: a sequence of consensus slots under attack.

The paper motivates omission-tolerant consensus with distributed ledgers and
replicated databases: every block/slot is one consensus instance, and a
network-level attacker that can drop messages at compromised replicas maps
exactly onto the adaptive omission adversary.

This example commits a ledger of N_SLOTS blocks: in each slot every replica
proposes a bit ("include the contested transaction or not" — replicas
disagree because they saw different mempools), a fresh adaptive adversary
silences a new set of replicas, and Algorithm 1 must keep all correct
replicas' ledgers identical.  The example checks ledger consistency and
reports per-slot costs.

Run:  python examples/ledger_replication.py
"""

from __future__ import annotations

import random

from repro import ProtocolParams
from repro.adversary import SilenceAdversary, VoteBalancingAdversary
from repro.harness import execute

N_REPLICAS = 96
N_SLOTS = 5


def main() -> None:
    params = ProtocolParams.practical()
    t = params.max_faults(N_REPLICAS)
    proposal_rng = random.Random(2024)

    ledgers: dict[int, list[int]] = {pid: [] for pid in range(N_REPLICAS)}
    total_rounds = 0
    total_bits = 0

    print(f"replicating a ledger on {N_REPLICAS} replicas, t = {t} faulty\n")
    print(f"{'slot':>4} {'proposals 1s':>13} {'adversary':>10} "
          f"{'decision':>8} {'rounds':>7} {'Mbits':>7}")

    for slot in range(N_SLOTS):
        # Replicas see different mempools: proposals are skewed randomly.
        lean = proposal_rng.choice([0.25, 0.5, 0.75])
        inputs = [
            1 if proposal_rng.random() < lean else 0
            for _ in range(N_REPLICAS)
        ]
        # Alternate attacks: total silence of fresh victims vs adaptive
        # vote balancing.
        if slot % 2 == 0:
            victims = proposal_rng.sample(range(N_REPLICAS), t)
            adversary = SilenceAdversary(victims)
            label = "silence"
        else:
            adversary = VoteBalancingAdversary(seed=slot)
            label = "balance"

        # Every slot goes through the unified harness.
        run = execute(
            "algorithm1",
            inputs,
            t=t,
            adversary=adversary,
            params=params,
            seed=100 + slot,
        )
        decision = run.decision
        faulty = run.result.faulty
        for pid in range(N_REPLICAS):
            if pid not in faulty:
                ledgers[pid].append(decision)

        rounds = run.result.time_to_agreement()
        bits = run.metrics.bits_sent
        total_rounds += rounds
        total_bits += bits
        print(
            f"{slot:>4} {sum(inputs):>13} {label:>10} {decision:>8} "
            f"{rounds:>7} {bits / 1e6:>7.2f}"
        )

    # All correct replicas participated in every slot here, so each correct
    # ledger must be identical.
    reference = None
    for pid, ledger in ledgers.items():
        if len(ledger) == N_SLOTS:
            if reference is None:
                reference = ledger
            assert ledger == reference, f"ledger divergence at replica {pid}"
    print(f"\nledger ({N_SLOTS} blocks) consistent across correct replicas: "
          f"{reference}")
    print(f"total: {total_rounds} rounds, {total_bits / 1e6:.1f} Mbits")


if __name__ == "__main__":
    main()
