"""Quickstart: run the paper's main algorithm once and read its metrics.

Spins up a 128-process synchronous system where an adaptive adversary
corrupts the full fault budget and silences it, then runs
``OptimalOmissionsConsensus`` (Algorithm 1) and prints the paper's three
complexity measures for the execution.

Run:  python examples/quickstart.py
"""

from repro import ProtocolParams, execute
from repro.adversary import SilenceAdversary


def main() -> None:
    n = 128
    params = ProtocolParams.practical()
    t = params.max_faults(n)

    # The hardest inputs: a perfectly balanced bit assignment.
    inputs = [pid % 2 for pid in range(n)]

    run = execute(
        "algorithm1",
        inputs,
        t=t,
        adversary=SilenceAdversary(range(t)),
        params=params,
        seed=42,
    )

    metrics = run.metrics
    print(f"system size          : n = {n}, fault budget t = {t}")
    print(f"decision             : {run.decision}")
    print(f"time (rounds)        : {run.result.time_to_agreement()}")
    print(f"communication bits   : {metrics.bits_sent:,}")
    print(f"messages             : {metrics.messages_sent:,}")
    print(f"random bits          : {metrics.random_bits}")
    print(f"corrupted processes  : {sorted(run.result.faulty)}")
    print(f"fallback triggered   : {run.ran_deterministic_fallback}")

    # Validity: a unanimous system must decide its common input and, per the
    # paper's validity argument, spends zero randomness doing so.
    unanimous = execute("algorithm1", [1] * n, t=t, params=params, seed=42)
    print(f"\nunanimous inputs 1   : decision={unanimous.decision}, "
          f"random bits={unanimous.metrics.random_bits}")


if __name__ == "__main__":
    main()
