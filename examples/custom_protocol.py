"""Build-your-own protocol: the extension workflow, end to end.

Implements a small consensus protocol from scratch on the substrate — a
quorum-confirmation protocol in the spirit of the omission-fault folklore —
registers it as a ``ProtocolSpec``, and immediately puts it through the
repository's conformance battery (agreement / validity / termination
checked in-run across the adversary gallery), then compares its cost
against Algorithm 1 on the same workload, both by name.

The protocol ("ConfirmedMajority", t+2 phases of 2 rounds):

* each phase: broadcast your bit, adopt the majority of received bits,
  then broadcast a CONFIRM carrying the adopted bit; a process seeing
  ``n - t`` CONFIRMs for one value locks it (never changes again);
* after the phases, broadcast the locked/current bit once more and decide
  the majority of what you receive.

It is *not* one of the paper's algorithms — that is the point: the example
shows what it takes to stand up a new protocol and certify it against the
model.  (It needs n > 4t like phase-king-style quorum arguments; the
conformance run below uses n = 36, t = 1.)

Run:  python examples/custom_protocol.py
"""

from __future__ import annotations

from repro.harness import (
    ExecutionConfig,
    ProtocolSpec,
    execute,
    register_protocol,
)
from repro.params import ProtocolParams
from repro.replay import check_consensus_protocol
from repro.runtime import ProcessEnv, Program, SyncProcess, tagged


class ConfirmedMajority(SyncProcess):
    """A from-scratch quorum-confirmation consensus for omission faults."""

    def __init__(self, pid: int, n: int, input_bit: int, t: int) -> None:
        super().__init__(pid, n)
        self.b = input_bit
        self.t = t
        self.locked = False

    def program(self, env: ProcessEnv) -> Program:
        n, t = self.n, self.t
        for _ in range(t + 2):
            # Round A: exchange bits, adopt the majority.
            env.broadcast(("bit", self.b))
            inbox = yield
            bits = tagged(inbox, "bit")
            ones = self.b + sum(bit for _, bit in bits)
            total = 1 + len(bits)
            if not self.locked:
                self.b = 1 if 2 * ones > total else 0

            # Round B: confirmations; a near-unanimous echo locks the bit.
            env.broadcast(("confirm", self.b))
            inbox = yield
            confirms = {0: 0, 1: 0}
            confirms[self.b] += 1
            for _, value in tagged(inbox, "confirm"):
                confirms[value] += 1
            for value in (0, 1):
                if confirms[value] >= n - t:
                    self.b = value
                    self.locked = True

        env.broadcast(("final", self.b))
        inbox = yield
        finals = tagged(inbox, "final")
        ones = self.b + sum(bit for _, bit in finals)
        total = 1 + len(finals)
        env.decide(1 if 2 * ones > total else 0)
        return None


register_protocol(ProtocolSpec(
    name="confirmed-majority",
    summary="quorum-confirmation consensus (examples/custom_protocol.py)",
    build=lambda config: ([
        ConfirmedMajority(pid, config.n, bit, config.t)
        for pid, bit in enumerate(config.inputs)
    ], config.t),
    sweepable=False,
), replace=True)


def main() -> None:
    n, t = 36, 1

    print("running the conformance battery "
          "(4 input scenarios x 5 adversaries x 2 seeds)...")
    failing = check_consensus_protocol(
        ExecutionConfig("confirmed-majority", n=n, t=t), seeds=(0, 1)
    )
    for recipe in failing:
        print(f"  FAIL {recipe.note}: {recipe.expected_failure}")
    if failing:
        print("\nthe battery caught a defect — each failing cell's shrunk "
              "recipe is saved under counterexamples/; fix before trusting "
              "it!")
        return
    print("every cell passed")

    # Cost comparison against the paper's algorithm on one workload.
    inputs = [pid % 2 for pid in range(n)]
    custom = execute("confirmed-majority", inputs, t=t, seed=3).result
    custom.agreement_value()
    paper = execute("algorithm1", inputs, t=t,
                    params=ProtocolParams.practical(), seed=3)

    print(f"\ncost on n={n}, balanced inputs, no adversary:")
    print(f"  ConfirmedMajority : {custom.time_to_agreement():>4} rounds, "
          f"{custom.metrics.bits_sent:>9,} bits, "
          f"{custom.metrics.random_bits} random bits")
    print(f"  Algorithm 1       : "
          f"{paper.result.time_to_agreement():>4} rounds, "
          f"{paper.metrics.bits_sent:>9,} bits, "
          f"{paper.metrics.random_bits} random bits")
    print("\nConfirmedMajority runs Theta(t) phases of full n^2 exchanges — "
          "fine at t=1, hopeless at t = Theta(n); Algorithm 1's epochs are "
          "what buy the sqrt(n) scaling.")


if __name__ == "__main__":
    main()
