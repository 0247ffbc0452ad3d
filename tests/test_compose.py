"""Tests for the adversary combinator."""

import pytest

from repro.adversary import SequentialAdversary, SilenceAdversary
from repro.runtime import ProcessEnv, SyncNetwork, SyncProcess


class Babbler(SyncProcess):
    def __init__(self, pid, n, rounds=8):
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


def run(adversary, n=6, t=3, rounds=8, seed=0):
    processes = [Babbler(pid, n, rounds) for pid in range(n)]
    network = SyncNetwork(processes, adversary=adversary, t=t, seed=seed)
    return network.run(), processes


class TestSequential:
    def test_stage_switch(self):
        adversary = SequentialAdversary(
            [SilenceAdversary([0]), SilenceAdversary([1])], boundaries=[4]
        )
        result, processes = run(adversary, t=2)
        # Process 0 corrupted in stage 1; process 1 in stage 2.
        listener = processes[5]
        assert 0 not in listener.heard[1]
        assert 1 in listener.heard[1]
        assert 1 not in listener.heard[5]

    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialAdversary([SilenceAdversary([0])], boundaries=[3])
        with pytest.raises(ValueError):
            SequentialAdversary(
                [SilenceAdversary([0])] * 3, boundaries=[5, 5]
            )
