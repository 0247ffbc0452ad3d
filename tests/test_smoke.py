"""End-to-end smoke tests: the public API works on small systems."""

from repro import ProtocolParams, execute
from repro.adversary import SilenceAdversary


def test_unanimous_one_no_faults():
    run = execute("algorithm1", [1] * 36, t=1, seed=1)
    assert run.decision == 1
    assert run.result.all_terminated


def test_unanimous_zero_no_faults():
    run = execute("algorithm1", [0] * 36, t=1, seed=2)
    assert run.decision == 0


def test_mixed_inputs_agree():
    inputs = [pid % 2 for pid in range(64)]
    run = execute("algorithm1", inputs, t=2, seed=3)
    assert run.decision in (0, 1)


def test_mixed_inputs_with_silenced_faulty():
    inputs = [pid % 2 for pid in range(64)]
    run = execute(
        "algorithm1", inputs, t=2, adversary=SilenceAdversary([0, 1]), seed=4
    )
    assert run.decision in (0, 1)


def test_paper_params_construct():
    params = ProtocolParams.paper()
    assert params.delta(1024) == 1023  # capped: 832*10 > 1023
