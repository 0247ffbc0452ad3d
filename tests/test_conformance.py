"""The property suite: every registry protocol through the battery.

Each row of :data:`SUITE` is one :func:`repro.replay.check_consensus_protocol`
call — protocol, ``n``, ``t``, options, adversaries and seeds — so
agreement, validity, termination, the budget and metering conservation are
checked in-run on four input scenarios per cell.  A failing cell is shrunk
and saved under ``$REPRO_COUNTEREXAMPLE_DIR`` (default
``./counterexamples``; CI uploads it); replay one with::

    python -m repro.cli replay counterexamples/<name>.json

The chaos rows' test entry points live in ``test_chaos_fuzz.py``.
"""

from collections.abc import Mapping, Sequence
from typing import NamedTuple

from repro.adversary import GALLERY, ChaosAdversary
from repro.harness import (
    ExecutionConfig,
    ProtocolSpec,
    available_protocols,
    register_protocol,
)
from repro.params import ProtocolParams
from repro.replay import check_consensus_protocol, load_recipe, replay
from repro.runtime import SyncProcess

PARAMS = ProtocolParams.practical()


def chaos(offset: int, **rates: float) -> dict:
    """One ``chaos`` adversary seeded ``offset + seed`` per cell."""
    return {
        "chaos": lambda n, t, seed: ChaosAdversary(seed=offset + seed, **rates)
    }


class Row(NamedTuple):
    protocol: str
    n: int
    t: int | None
    adversaries: Mapping = GALLERY
    seeds: Sequence[int] = (0,)
    options: Mapping = {}


SUITE = {
    "algorithm1": Row("algorithm1", 36, 1),
    "early-stopping": Row("early-stopping", 36, 1),
    "multivalued": Row("multivalued", 36, 1),
    "ben-or": Row("ben-or", 16, 2),
    "dolev-strong": Row("dolev-strong", 15, 3),
    "phase-king": Row("phase-king", 15, 3),
    "trb": Row("trb", 16, 2),
    "chaos-algorithm1": Row(
        "algorithm1", 64, PARAMS.max_faults(64), chaos(0), range(6)
    ),
    "chaos-algorithm1-validity": Row(
        "algorithm1", 64, PARAMS.max_faults(64), chaos(0, corrupt_rate=0.2),
        range(4),
    ),
    "chaos-early-stopping": Row(
        "early-stopping", 64, PARAMS.max_faults(64), chaos(100), range(4)
    ),
    "chaos-tradeoff": Row("tradeoff", 64, None, chaos(200), range(3), {"x": 4}),
    "chaos-dolev-strong": Row(
        "dolev-strong", 13, 3, chaos(300, corrupt_rate=0.3), range(4)
    ),
    "chaos-phase-king": Row(
        "phase-king", 13, 3, chaos(400, corrupt_rate=0.3), range(4)
    ),
}


def assert_conforms(name: str, seeds: Sequence[int] | None = None) -> None:
    """Run one row of :data:`SUITE` (or some of its seeds)."""
    row = SUITE[name]
    failing = check_consensus_protocol(
        ExecutionConfig(row.protocol, n=row.n, t=row.t, options=row.options),
        row.adversaries,
        row.seeds if seeds is None else seeds,
    )
    assert failing == [], [recipe.expected_failure for recipe in failing]


def test_suite_covers_every_sweepable_protocol():
    assert {row.protocol for row in SUITE.values()} >= set(
        available_protocols(sweepable=True)
    )


class TestShippedProtocolsConform:
    def test_algorithm1(self):
        assert_conforms("algorithm1")

    def test_early_stopping(self):
        assert_conforms("early-stopping")

    def test_multivalued(self):
        assert_conforms("multivalued")

    def test_ben_or(self):
        assert_conforms("ben-or")

    def test_dolev_strong(self):
        assert_conforms("dolev-strong")

    def test_phase_king(self):
        assert_conforms("phase-king")

    def test_trb(self):
        assert_conforms("trb")


# ---------------------------------------------------------------------------
# The battery catches planted bugs, one invariant each.
class DecideOwnBit(SyncProcess):
    def __init__(self, pid, n, bit):
        super().__init__(pid, n)
        self.bit = bit

    def program(self, env):
        env.decide(self.bit)
        return None
        yield  # pragma: no cover


class AlwaysZero(DecideOwnBit):
    def program(self, env):
        env.decide(0)
        return None
        yield  # pragma: no cover


class Mute(DecideOwnBit):
    def program(self, env):
        yield
        return None


def plant(process_class) -> ExecutionConfig:
    """Register a broken protocol; its battery config at n=12, t=0."""
    name = f"planted-{process_class.__name__}"
    register_protocol(
        ProtocolSpec(
            name=name,
            summary="test-only planted bug",
            build=lambda config: ([
                process_class(pid, config.n, bit)
                for pid, bit in enumerate(config.inputs)
            ], config.t),
            default_max_rounds=10,
            default_t=lambda n, params: 0,
            sweepable=False,
        ),
        replace=True,
    )
    return ExecutionConfig(name, n=12)


def battery(process_class, save_dir):
    return check_consensus_protocol(
        plant(process_class), {"none": GALLERY["none"]}, (0,), save_dir
    )


class TestHarnessDetectsBrokenProtocols:
    def test_detects_disagreement(self, tmp_path):
        failing = battery(DecideOwnBit, tmp_path)
        # Mixed-input scenarios disagree; unanimous ones are fine.
        assert [recipe.expected_failure["invariant"] for recipe in failing] == [
            "agreement", "agreement",
        ]
        assert [recipe.config.inputs.count(1) for recipe in failing] == [6, 9]
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_detects_validity_violation(self, tmp_path):
        (failing,) = battery(AlwaysZero, tmp_path)
        assert failing.expected_failure["invariant"] == "validity"
        assert set(failing.config.inputs) == {1}

    def test_detects_non_termination(self, tmp_path):
        failing = battery(Mute, tmp_path)
        assert len(failing) == 4
        assert {
            recipe.expected_failure["invariant"] for recipe in failing
        } == {"termination"}

    def test_summary_mentions_failures(self, tmp_path):
        """A failing cell's recipe names its cell in its note and its file
        name, and replays to the same failure."""
        failing = battery(Mute, tmp_path)
        saved = sorted(tmp_path.glob("*.json"))
        for scenario in ("all-zero", "all-one", "balanced", "skewed"):
            assert any(
                f"battery: {scenario} adversary=none seed=0" in recipe.note
                for recipe in failing
            )
            assert any(f"-{scenario}-none-seed0-" in p.name for p in saved)
        for path in saved:
            assert replay(load_recipe(path)).reproduced_failure
