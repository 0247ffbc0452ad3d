"""Build-your-own protocol: the extension workflow, end to end.

Implements a small consensus protocol from scratch on the substrate — a
quorum-confirmation protocol in the spirit of the omission-fault folklore —
and immediately puts it through the repository's conformance battery
(agreement / validity / termination across the adversary gallery), then
compares its cost against Algorithm 1 on the same workload.

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

from repro.analysis import check_consensus_protocol
from repro.harness import execute
from repro.params import ProtocolParams
from repro.runtime import ProcessEnv, Program, SyncNetwork, SyncProcess


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
            ones = self.b
            total = 1
            for message in inbox:
                payload = message.payload
                if isinstance(payload, tuple) and payload[0] == "bit":
                    total += 1
                    ones += payload[1]
            if not self.locked:
                self.b = 1 if 2 * ones > total else 0

            # Round B: confirmations; a near-unanimous echo locks the bit.
            env.broadcast(("confirm", self.b))
            inbox = yield
            confirms = {0: 0, 1: 0}
            confirms[self.b] += 1
            for message in inbox:
                payload = message.payload
                if isinstance(payload, tuple) and payload[0] == "confirm":
                    confirms[payload[1]] += 1
            for value in (0, 1):
                if confirms[value] >= n - t:
                    self.b = value
                    self.locked = True

        env.broadcast(("final", self.b))
        inbox = yield
        ones = self.b
        total = 1
        for message in inbox:
            payload = message.payload
            if isinstance(payload, tuple) and payload[0] == "final":
                total += 1
                ones += payload[1]
        env.decide(1 if 2 * ones > total else 0)
        return None


def factory(inputs, t):
    n = len(inputs)
    return [ConfirmedMajority(pid, n, inputs[pid], t) for pid in range(n)]


def main() -> None:
    n, t = 36, 1

    print("running the conformance battery "
          "(4 input scenarios x 5 adversaries x 2 seeds)...")
    report = check_consensus_protocol(factory, n=n, t=t, seeds=(0, 1))
    print(report.summary())
    if not report.passed:
        print("\nthe battery caught a defect — fix before trusting it!")
        return

    # Cost comparison against the paper's algorithm on one workload.
    # This example deliberately drives the raw engine; registered
    # protocols should go through repro.harness.execute() instead.
    inputs = [pid % 2 for pid in range(n)]
    network = SyncNetwork(factory(inputs, t), t=t, seed=3)
    custom = network.run()
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
