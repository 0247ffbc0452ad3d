"""Tests for (and via) the consensus-conformance harness."""

from repro.adversary import GALLERY
from repro.analysis.conformance import check_consensus_protocol
from repro.baselines import DolevStrongProcess, PhaseKingProcess
from repro.core import EarlyStoppingConsensus, OptimalOmissionsConsensus
from repro.params import ProtocolParams

PARAMS = ProtocolParams.practical()


def algorithm1_factory(inputs, t):
    n = len(inputs)
    return [
        OptimalOmissionsConsensus(pid, n, inputs[pid], t=t, params=PARAMS)
        for pid in range(n)
    ]


def early_stopping_factory(inputs, t):
    n = len(inputs)
    return [
        EarlyStoppingConsensus(pid, n, inputs[pid], t=t, params=PARAMS)
        for pid in range(n)
    ]


def dolev_strong_factory(inputs, t):
    n = len(inputs)
    return [
        DolevStrongProcess(pid, n, inputs[pid], t) for pid in range(n)
    ]


def phase_king_factory(inputs, t):
    n = len(inputs)
    return [
        PhaseKingProcess(pid, n, inputs[pid], t) for pid in range(n)
    ]


class TestShippedProtocolsConform:
    def test_algorithm1(self):
        report = check_consensus_protocol(
            algorithm1_factory, n=36, t=1, seeds=(0,)
        )
        assert report.passed, report.summary()

    def test_early_stopping(self):
        report = check_consensus_protocol(
            early_stopping_factory, n=36, t=1, seeds=(0,)
        )
        assert report.passed, report.summary()

    def test_dolev_strong(self):
        report = check_consensus_protocol(
            dolev_strong_factory, n=15, t=3, seeds=(0,)
        )
        assert report.passed, report.summary()

    def test_phase_king(self):
        report = check_consensus_protocol(
            phase_king_factory, n=15, t=3, seeds=(0,)
        )
        assert report.passed, report.summary()


class TestHarnessDetectsBrokenProtocols:
    def test_detects_disagreement(self):
        from repro.runtime import SyncProcess

        class DecideOwnBit(SyncProcess):
            def __init__(self, pid, n, bit):
                super().__init__(pid, n)
                self.bit = bit

            def program(self, env):
                env.decide(self.bit)
                return None
                yield  # pragma: no cover

        report = check_consensus_protocol(
            lambda inputs, t: [
                DecideOwnBit(pid, len(inputs), inputs[pid])
                for pid in range(len(inputs))
            ],
            n=12,
            t=0,
            seeds=(0,),
            gallery={"none": GALLERY["none"]},
        )
        assert not report.passed
        failures = report.failures()
        # Mixed-input scenarios disagree; unanimous ones are fine.
        assert any("correctness" in f.failure for f in failures)
        scenarios = {f.scenario for f in failures}
        assert {"balanced", "skewed"} <= scenarios

    def test_detects_validity_violation(self):
        from repro.runtime import SyncProcess

        class AlwaysZero(SyncProcess):
            def __init__(self, pid, n, bit):
                super().__init__(pid, n)

            def program(self, env):
                env.decide(0)
                return None
                yield  # pragma: no cover

        report = check_consensus_protocol(
            lambda inputs, t: [
                AlwaysZero(pid, len(inputs), inputs[pid])
                for pid in range(len(inputs))
            ],
            n=12,
            t=0,
            seeds=(0,),
            gallery={"none": GALLERY["none"]},
        )
        failures = report.failures()
        assert any("validity" in f.failure for f in failures)

    def test_detects_non_termination(self):
        from repro.runtime import SyncProcess

        class Mute(SyncProcess):
            def __init__(self, pid, n, bit):
                super().__init__(pid, n)

            def program(self, env):
                yield
                return None

        report = check_consensus_protocol(
            lambda inputs, t: [
                Mute(pid, len(inputs), inputs[pid])
                for pid in range(len(inputs))
            ],
            n=6,
            t=0,
            seeds=(0,),
            gallery={"none": GALLERY["none"]},
        )
        assert not report.passed
        assert all("correctness" in f.failure for f in report.failures())

    def test_summary_mentions_failures(self):
        from repro.runtime import SyncProcess

        class Mute(SyncProcess):
            def __init__(self, pid, n, bit):
                super().__init__(pid, n)

            def program(self, env):
                yield
                return None

        report = check_consensus_protocol(
            lambda inputs, t: [
                Mute(pid, len(inputs), inputs[pid])
                for pid in range(len(inputs))
            ],
            n=6,
            t=0,
            seeds=(0,),
            gallery={"none": GALLERY["none"]},
        )
        assert "FAIL" in report.summary()
