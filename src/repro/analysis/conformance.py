"""Consensus-conformance harness: check a protocol against the model.

Anyone extending this repository with a new consensus protocol (a tuned
variant, a different fallback, a new trade-off point) needs the same
battery every time: agreement, validity and termination across an adversary
gallery and seed set, plus metric sanity.  :func:`check_consensus_protocol`
packages that battery as a library call returning a structured report —
the test suite uses it on the shipped protocols, and `examples` can show
it guarding a custom protocol.

The protocol under test is supplied as a *factory*::

    def factory(inputs: list[int], t: int) -> list[SyncProcess]: ...

so the harness can instantiate it for every scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from ..adversary import GALLERY
from ..runtime import SyncNetwork, SyncProcess

ProtocolFactory = Callable[[Sequence[int], int], list[SyncProcess]]


@dataclass(frozen=True)
class ScenarioResult:
    """One (inputs, adversary, seed) cell of the conformance matrix."""

    scenario: str
    adversary: str
    seed: int
    passed: bool
    failure: str = ""
    rounds: int = 0
    decision: object = None


@dataclass
class ConformanceReport:
    """Aggregated outcome of :func:`check_consensus_protocol`."""

    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def failures(self) -> list[ScenarioResult]:
        return [result for result in self.results if not result.passed]

    def summary(self) -> str:
        ok = sum(1 for result in self.results if result.passed)
        lines = [f"{ok}/{len(self.results)} scenarios passed"]
        for failure in self.failures():
            lines.append(
                f"  FAIL {failure.scenario} / {failure.adversary} / "
                f"seed {failure.seed}: {failure.failure}"
            )
        return "\n".join(lines)


def _input_scenarios(n: int) -> dict[str, list[int]]:
    return {
        "all-zero": [0] * n,
        "all-one": [1] * n,
        "balanced": [pid % 2 for pid in range(n)],
        "skewed": [1 if pid < (3 * n) // 4 else 0 for pid in range(n)],
    }


def check_consensus_protocol(
    factory: ProtocolFactory,
    n: int,
    t: int,
    seeds: Sequence[int] = (0, 1),
    gallery: dict | None = None,
    max_rounds: int = 200_000,
) -> ConformanceReport:
    """Run the conformance battery; returns a :class:`ConformanceReport`.

    Checks per scenario:

    * **termination + agreement** — every non-faulty process decides, all on
      one value (via ``ExecutionResult.agreement_value``);
    * **validity** — on unanimous inputs the decision equals the common
      input;
    * **metric sanity** — the per-round series sum to the totals, and the
      time metric never exceeds the executed rounds + 1.
    """
    gallery = gallery if gallery is not None else GALLERY
    report = ConformanceReport()
    for scenario_name, inputs in _input_scenarios(n).items():
        unanimous = len(set(inputs)) == 1
        for adversary_name, build in gallery.items():
            for seed in seeds:
                failure = ""
                rounds = 0
                decision = None
                try:
                    # Conformance drives arbitrary factories with a
                    # pinned gallery: a designated engine fixture.
                    network = SyncNetwork(
                        factory(inputs, t),
                        adversary=build(n, t, seed),
                        t=t,
                        seed=seed,
                        max_rounds=max_rounds,
                    )
                    result = network.run()
                    decision = result.agreement_value()
                    rounds = result.time_to_agreement()
                    if unanimous and decision != inputs[0]:
                        failure = (
                            f"validity: decided {decision!r} on unanimous "
                            f"{inputs[0]!r}"
                        )
                    elif sum(result.metrics.messages_per_round) != (
                        result.metrics.messages_sent
                    ):
                        failure = "metrics: per-round series != total"
                    elif rounds > result.metrics.rounds + 1:
                        failure = (
                            f"time metric {rounds} exceeds executed rounds "
                            f"{result.metrics.rounds} + 1"
                        )
                except AssertionError as error:
                    failure = f"correctness: {error}"
                except Exception as error:  # noqa: BLE001 - report, not raise
                    failure = f"crash: {type(error).__name__}: {error}"
                report.results.append(
                    ScenarioResult(
                        scenario=scenario_name,
                        adversary=adversary_name,
                        seed=seed,
                        passed=not failure,
                        failure=failure,
                        rounds=rounds,
                        decision=decision,
                    )
                )
    return report
