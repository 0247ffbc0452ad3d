"""Property-based end-to-end tests: consensus invariants under randomly
generated inputs, fault budgets and adversarial schedules.

These are the heavyweight hypothesis tests; sizes are kept small so the
whole module stays in seconds.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import execute
from repro.adversary import (
    RandomOmissionAdversary,
    SilenceAdversary,
    StaticCrashAdversary,
)
from repro.baselines.dolev_strong import DolevStrongProcess
from repro.runtime import SyncNetwork

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@SLOW
@given(
    inputs=st.lists(st.integers(0, 1), min_size=32, max_size=48),
    seed=st.integers(0, 10**6),
)
def test_algorithm1_agreement_and_validity(inputs, seed):
    n = len(inputs)
    run = execute("algorithm1", inputs, t=1,
                  adversary=SilenceAdversary([seed % n]), seed=seed)
    decision = run.decision  # asserts agreement + termination
    assert decision in (0, 1)
    non_faulty_inputs = {
        inputs[pid] for pid in range(n) if pid not in run.result.faulty
    }
    if len(non_faulty_inputs) == 1:
        assert decision == non_faulty_inputs.pop()


@SLOW
@given(
    seed=st.integers(0, 10**6),
    omit_probability=st.floats(0.0, 1.0),
)
def test_algorithm1_under_random_omission_noise(seed, omit_probability):
    n = 48
    inputs = [(pid * 7 + seed) % 2 for pid in range(n)]
    run = execute(
        "algorithm1", inputs,
        t=1,
        adversary=RandomOmissionAdversary(omit_probability, seed=seed),
        seed=seed,
    )
    assert run.decision in (0, 1)


@SLOW
@given(
    data=st.data(),
    seed=st.integers(0, 10**6),
)
def test_dolev_strong_under_arbitrary_crash_schedules(data, seed):
    n, t = 10, 3
    inputs = [data.draw(st.integers(0, 1)) for _ in range(n)]
    schedule = {}
    for victim in data.draw(
        st.lists(st.integers(0, n - 1), max_size=t, unique=True)
    ):
        schedule.setdefault(data.draw(st.integers(0, t + 1)), []).append(victim)
    processes = [
        DolevStrongProcess(pid, n, inputs[pid], t) for pid in range(n)
    ]
    network = SyncNetwork(
        processes, adversary=StaticCrashAdversary(schedule), t=t, seed=seed
    )
    result = network.run()
    decision = result.agreement_value()
    non_faulty_inputs = {
        inputs[pid] for pid in range(n) if pid not in result.faulty
    }
    if non_faulty_inputs == {1} and len(result.faulty) == 0:
        assert decision == 1


@SLOW
@given(
    inputs=st.lists(st.integers(0, 1), min_size=13, max_size=13),
    seed=st.integers(0, 10**6),
)
def test_phase_king_agreement_with_silenced_prefix(inputs, seed):
    result = execute(
        "phase-king", inputs, t=3, adversary=SilenceAdversary([seed % 13]), seed=seed
    ).result
    assert result.agreement_value() in (0, 1)
