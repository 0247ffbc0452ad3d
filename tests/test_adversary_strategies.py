"""Unit tests for the adversary strategy gallery."""

from repro.adversary import (
    EclipseAdversary,
    GroupKnockoutAdversary,
    RandomOmissionAdversary,
    SilenceAdversary,
    StaticCrashAdversary,
    VoteBalancingAdversary,
)
from repro.runtime import (
    Message,
    NetworkView,
    ProcessEnv,
    SyncNetwork,
    SyncProcess,
)

from .delivery_oracle import batch_of


class Babbler(SyncProcess):
    """Broadcasts its pid each round; tracks what it hears."""

    def __init__(self, pid, n, rounds=6):
        super().__init__(pid, n)
        self.rounds = rounds
        self.heard: list[set[int]] = []

    def program(self, env: ProcessEnv):
        for _ in range(self.rounds):
            env.broadcast(("hi", self.pid))
            inbox = yield
            self.heard.append({message.sender for message in inbox})
        env.decide("done")
        return None


def run_babble(n, adversary, t, rounds=6, seed=0):
    processes = [Babbler(pid, n, rounds) for pid in range(n)]
    network = SyncNetwork(processes, adversary=adversary, t=t, seed=seed)
    result = network.run()
    return result, processes


class TestSilenceAdversary:
    def test_victims_never_heard(self):
        result, processes = run_babble(6, SilenceAdversary([0, 1]), t=2)
        assert result.faulty == frozenset({0, 1})
        for process in processes[2:]:
            for heard in process.heard[1:]:
                assert heard.isdisjoint({0, 1})

    def test_respects_budget(self):
        result, _ = run_babble(6, SilenceAdversary(range(6)), t=2)
        assert len(result.faulty) == 2


class TestStaticCrashAdversary:
    def test_crash_round_honoured(self):
        adversary = StaticCrashAdversary({3: [2]})
        result, processes = run_babble(5, adversary, t=1)
        assert result.faulty == frozenset({2})
        listener = processes[0]
        # Heard process 2 before its crash round, never after.
        assert 2 in listener.heard[1]
        for heard in listener.heard[4:]:
            assert 2 not in heard


class TestRandomOmissionAdversary:
    def test_only_faulty_links_touched(self):
        adversary = RandomOmissionAdversary(1.0, corrupt_count=1, seed=3)
        result, processes = run_babble(6, adversary, t=1)
        (victim,) = result.faulty
        for process in processes:
            if process.pid == victim:
                continue
            for heard in process.heard[1:]:
                assert victim not in heard

    def test_zero_probability_never_omits(self):
        adversary = RandomOmissionAdversary(0.0, seed=4)
        result, _ = run_babble(6, adversary, t=2)
        assert result.metrics.messages_omitted == 0


class TestEclipseAdversary:
    def test_only_victim_links_omitted(self):
        victim, neighbors = 0, [1, 2]
        adversary = EclipseAdversary(victim, neighbors)
        result, processes = run_babble(6, adversary, t=2)
        assert result.faulty == frozenset(neighbors)
        # Victim stops hearing its eclipsed neighbours...
        for heard in processes[victim].heard[1:]:
            assert heard.isdisjoint(neighbors)
        # ...but everyone else still hears them (only victim-bound messages
        # are dropped).
        for heard in processes[3].heard[1:]:
            assert {1, 2} <= heard


class TestGroupKnockoutAdversary:
    def test_majority_of_group_silenced(self):
        group = (0, 1, 2, 3)
        adversary = GroupKnockoutAdversary(group)
        result, processes = run_babble(8, adversary, t=3)
        assert result.faulty == frozenset({0, 1, 2})
        for heard in processes[5].heard[1:]:
            assert heard.isdisjoint({0, 1, 2})


class TestVoteBalancingAdversary:
    def test_silences_leading_holders(self):
        class Holder(Babbler):
            def __init__(self, pid, n):
                super().__init__(pid, n)
                self.b = 1 if pid < 5 else 0  # 5 ones vs 1 zero
                self.operative = True
                self.decided = False

        processes = [Holder(pid, 6) for pid in range(6)]
        adversary = VoteBalancingAdversary(seed=1)
        network = SyncNetwork(processes, adversary=adversary, t=2, seed=1)
        result = network.run()
        # margin = 4 -> silence min(margin//2, budget) = 2 ones-holders.
        assert len(result.faulty) == 2
        assert all(pid < 5 for pid in result.faulty)

    def test_does_nothing_when_balanced(self):
        class Holder(Babbler):
            def __init__(self, pid, n):
                super().__init__(pid, n)
                self.b = pid % 2
                self.operative = True
                self.decided = False

        processes = [Holder(pid, 6) for pid in range(6)]
        adversary = VoteBalancingAdversary(seed=2)
        network = SyncNetwork(processes, adversary=adversary, t=2, seed=2)
        result = network.run()
        assert result.faulty == frozenset()


class TestViewHelpers:
    def test_message_index_helpers(self):
        messages = [Message(0, 1, "a"), Message(1, 2, "b"), Message(2, 0, "c")]
        view = NetworkView(
            round=0,
            processes=[],
            messages=batch_of(messages),
            faulty=frozenset(),
            budget_left=0,
            decisions={},
            terminated=frozenset(),
        )
        assert view.message_indices_from({1}) == frozenset({1})
        assert view.message_indices_to({0}) == frozenset({2})
        assert view.message_indices_touching({0}) == frozenset({0, 2})

class TestCapToBudgetBoundaries:
    """Regression: exact-budget edges of the strategies' budget capping."""

    @staticmethod
    def make_view(faulty=(), budget_left=0):
        return NetworkView(
            0, (), (), frozenset(faulty), budget_left, {}, frozenset()
        )

    def test_zero_remaining_budget_chooses_nobody(self):
        from repro.adversary.strategies import _cap_to_budget

        view = self.make_view(faulty=[0, 1], budget_left=0)
        assert _cap_to_budget([2, 3, 4], view) == frozenset()

    def test_already_holding_t_corruptions(self):
        """With the budget fully spent, re-proposed and fresh candidates
        alike must be dropped (the engine would reject either)."""
        from repro.adversary.strategies import _cap_to_budget

        view = self.make_view(faulty=[0, 1, 2], budget_left=0)
        assert _cap_to_budget([0, 1, 2, 3], view) == frozenset()

    def test_exactly_budget_many_candidates_all_chosen(self):
        from repro.adversary.strategies import _cap_to_budget

        view = self.make_view(budget_left=3)
        assert _cap_to_budget([4, 5, 6], view) == frozenset({4, 5, 6})

    def test_faulty_and_duplicate_candidates_free(self):
        """Already-faulty pids and duplicates must not consume budget."""
        from repro.adversary.strategies import _cap_to_budget

        view = self.make_view(faulty=[0], budget_left=2)
        assert _cap_to_budget([0, 1, 1, 0, 2, 3], view) == frozenset({1, 2})

    def test_silence_adversary_at_exact_budget(self):
        """End-to-end: t victims against budget exactly t is legal and
        total — one more victim must be silently dropped, not an error."""
        result, _ = run_babble(6, SilenceAdversary([0, 1, 2]), t=3)
        assert result.faulty == frozenset({0, 1, 2})
        result, _ = run_babble(6, SilenceAdversary([0, 1, 2, 3]), t=3)
        assert len(result.faulty) == 3


class TestSetupMigration:
    """The AdversaryContext lifecycle hook (the legacy 3-arg adapter is gone)."""

    def test_in_repo_strategies_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_babble(6, RandomOmissionAdversary(0.5, seed=1), t=2)
            run_babble(6, VoteBalancingAdversary(seed=1), t=2)

    def test_setup_receives_a_context_not_positional_args(self):
        from repro.runtime import Adversary, AdversaryContext

        class Recorder(Adversary):
            def __init__(self):
                self.saw = None

            def setup(self, ctx):
                assert isinstance(ctx, AdversaryContext)
                self.saw = (ctx.n, ctx.t, len(ctx.processes))

        recorder = Recorder()
        result, _ = run_babble(6, recorder, t=2)
        assert recorder.saw == (6, 2, 6)
        assert result.all_terminated

    def test_context_carries_seeded_rng(self):
        from repro.runtime import Adversary

        draws = []

        class Sampler(Adversary):
            def setup(self, ctx):
                assert ctx.n == 6 and ctx.t == 2
                draws.append(ctx.rng.random())

        run_babble(6, Sampler(), t=2, seed=9)
        run_babble(6, Sampler(), t=2, seed=9)
        assert draws[0] == draws[1]
