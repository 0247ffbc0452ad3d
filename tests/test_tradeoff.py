"""Integration tests for ParamOmissions (Algorithm 4, the T<->R trade-off)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import SilenceAdversary, VoteBalancingAdversary
from repro.analysis import CampaignSpec, run_campaign
from repro.core import super_partition
from repro.harness import execute
from repro.params import ProtocolParams

PARAMS = ProtocolParams.practical()


def mixed(n):
    return [pid % 2 for pid in range(n)]


class TestSuperPartition:
    def test_single_group(self):
        assert super_partition(6, 1) == (tuple(range(6)),)

    def test_singletons(self):
        assert super_partition(3, 3) == ((0,), (1,), (2,))

    def test_rejects_bad_x(self):
        with pytest.raises(ValueError):
            super_partition(4, 0)
        with pytest.raises(ValueError):
            super_partition(4, 5)

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
    )
    def test_partition_invariants(self, n, x):
        if x > n:
            return
        groups = super_partition(n, x)
        flattened = [pid for group in groups for pid in group]
        assert flattened == list(range(n))
        import math

        size = math.ceil(n / x)
        assert all(1 <= len(group) <= size for group in groups)


class TestCorrectness:
    @pytest.mark.parametrize("x", [1, 2, 4, 8, 32])
    def test_agreement_no_adversary(self, x):
        run = execute("tradeoff", mixed(32), x=x, seed=1)
        assert run.decision in (0, 1)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity(self, bit):
        run = execute("tradeoff", [bit] * 32, x=4, seed=2)
        assert run.decision == bit

    def test_validity_uses_zero_randomness(self):
        run = execute("tradeoff", [1] * 32, x=4, seed=3)
        assert run.metrics.random_bits == 0

    def test_agreement_under_silence(self):
        n = 64
        run = execute(
            "tradeoff", mixed(n), x=4, adversary=SilenceAdversary([0]), seed=4
        )
        assert run.decision in (0, 1)

    def test_agreement_under_balancer(self):
        n = 64
        run = execute(
            "tradeoff", mixed(n), x=4, adversary=VoteBalancingAdversary(seed=5), seed=5
        )
        assert run.decision in (0, 1)

    def test_fault_budget_is_halved(self):
        """Theorem 8 tolerates t < n/60 — half of Algorithm 1's budget."""
        run_small = execute("tradeoff", mixed(124), x=4, seed=6)
        run_large = execute("tradeoff", mixed(248), x=4, seed=6)
        # Strictly below n/60, at roughly half Algorithm 1's budget.
        for run, n in ((run_small, 124), (run_large, 248)):
            t = run.processes[0].t
            assert t * 60 < n
            assert t <= PARAMS.max_faults(n)
        assert run_large.processes[0].t > run_small.processes[0].t

    def test_small_n_edge_cases(self):
        for n, x in ((2, 1), (2, 2), (5, 3), (7, 7)):
            run = execute("tradeoff", mixed(n), x=x, seed=7)
            assert run.decision in (0, 1)


def sweep(n, xs, seed):
    """One campaign cell per super-process count."""
    return [
        run_campaign(CampaignSpec(
            "tradeoff-shape", "tradeoff", ns=(n,), seeds=(seed,),
            options={"x": x},
        ))[0]
        for x in xs
    ]


class TestTradeoffShape:
    def test_randomness_decreases_with_x(self):
        """Theorem 3's dial: more super-processes => fewer random bits
        (peak at x=1, exactly zero at x=n; the tail may wiggle by a few
        per-epoch coins in tiny groups)."""
        points = sweep(64, [1, 4, 16, 64], seed=8)
        randomness = [point["random_bits"] for point in points]
        assert randomness[0] == max(randomness)
        assert randomness[-1] == 0  # singleton phases are deterministic
        assert all(r < randomness[0] for r in randomness[1:])

    def test_rounds_increase_with_x(self):
        points = sweep(64, [1, 4, 16, 64], seed=8)
        rounds = [point["rounds"] for point in points]
        assert rounds[0] == min(rounds)
        assert rounds[-1] > 4 * rounds[0]

    def test_decisions_consistent_fields(self):
        points = sweep(32, [2, 8], seed=9)
        for point in points:
            assert point["decision"] in (0, 1)
            assert point["bits"] > 0


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=8, max_value=40),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_agreement_random_configurations(n, seed):
    """Random (n, x, seed) configurations always reach agreement."""
    x = max(1, (seed % n) or 1)
    inputs = [(pid * seed + pid) % 2 for pid in range(n)]
    run = execute("tradeoff", inputs, x=x, seed=seed)
    assert run.decision in (0, 1)


class TestAdversarialSuperProcesses:
    def test_knocked_out_super_process_is_survivable(self):
        """Silencing a majority of the FIRST super-process wrecks its phase;
        Lemma 17's reliable super-process argument says a later phase still
        unifies the system."""
        from repro.adversary import GroupKnockoutAdversary
        from repro.core import super_partition

        n, x = 64, 4
        supers = super_partition(n, x)
        run = execute(
            "tradeoff", mixed(n),
            x=x,
            adversary=GroupKnockoutAdversary(supers[0][:3]),
            seed=31,
        )
        assert run.decision in (0, 1)

    def test_chaos_over_phases(self):
        from repro.adversary import ChaosAdversary

        run = execute(
            "tradeoff", mixed(64), x=8, adversary=ChaosAdversary(seed=9), seed=32
        )
        assert run.decision in (0, 1)

    def test_validity_survives_super_process_knockout(self):
        from repro.adversary import GroupKnockoutAdversary
        from repro.core import super_partition

        n, x = 64, 4
        supers = super_partition(n, x)
        run = execute(
            "tradeoff", [1] * n,
            x=x,
            adversary=GroupKnockoutAdversary(supers[1][:3]),
            seed=33,
        )
        assert run.decision == 1
