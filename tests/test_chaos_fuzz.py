"""Protocol fuzzing: randomized legal adversarial schedules.

Every ChaosAdversary schedule is within the model, so the consensus
properties must hold for every seed — the protocol-level analogue of
property-based testing.

Each test runs one seed of a ``chaos-*`` row of the property suite
(``test_conformance.SUITE``) through the battery,
``repro.replay.check_consensus_protocol``: invariants are checked *during*
the run on four input scenarios, and a violation is shrunk to a minimal
adversary schedule and saved as a replayable recipe under
``counterexamples/`` (override with ``$REPRO_COUNTEREXAMPLE_DIR``).
"""

import pytest

from repro.adversary import ChaosAdversary

from .test_conformance import SUITE, assert_conforms


class TestChaosConstruction:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            ChaosAdversary(corrupt_rate=1.5)


@pytest.mark.parametrize("seed", SUITE["chaos-algorithm1"].seeds)
def test_algorithm1_survives_chaos(seed):
    assert_conforms("chaos-algorithm1", (seed,))


@pytest.mark.parametrize("seed", SUITE["chaos-algorithm1-validity"].seeds)
def test_algorithm1_validity_under_chaos(seed):
    assert_conforms("chaos-algorithm1-validity", (seed,))


@pytest.mark.parametrize("seed", SUITE["chaos-early-stopping"].seeds)
def test_early_stopping_survives_chaos(seed):
    assert_conforms("chaos-early-stopping", (seed,))


@pytest.mark.parametrize("seed", SUITE["chaos-tradeoff"].seeds)
def test_tradeoff_survives_chaos(seed):
    assert_conforms("chaos-tradeoff", (seed,))


@pytest.mark.parametrize("seed", SUITE["chaos-dolev-strong"].seeds)
def test_dolev_strong_survives_chaos(seed):
    assert_conforms("chaos-dolev-strong", (seed,))


@pytest.mark.parametrize("seed", SUITE["chaos-phase-king"].seeds)
def test_phase_king_survives_chaos(seed):
    assert_conforms("chaos-phase-king", (seed,))
