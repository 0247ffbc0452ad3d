"""Per-run fingerprints of the core protocols and the valency searches.

``tests/data/golden-protocols.json`` was generated at the commit *before*
Algorithm 1's epoch / dissemination / fallback and the crash-schedule game
tree each became one definition (by calling :func:`run_entry` and
:func:`search_entry` below against that commit's ``src/``); nothing a run
simulates and no search output may move by one bit across that change.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.adversary import GALLERY, GroupKnockoutAdversary
from repro.harness import execute
from repro.lowerbound import (
    CoinVotingProtocol,
    FloodMinProtocol,
    MajorityRoundsProtocol,
    probability_band,
    reachable_outcomes,
)
from repro.params import ProtocolParams
from repro.runtime import result_to_dict

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden-protocols.json").read_text()
)

ONE_EPOCH = ProtocolParams.practical().with_overrides(epoch_min=1)
#: A budget that lets one adversary silence the majority of a sqrt(n)-group.
LOOSE_BUDGET = ProtocolParams.practical().with_overrides(
    fault_fraction_denominator=8
)

#: name -> (protocol, n, t, execute keywords).  Default epochs give the fast
#: path and the inoperative wait; one epoch leaves operative processes
#: undecided, so they run Dolev-Strong — ParamOmissions has no
#: ``num_epochs`` option and takes the one-epoch preset instead (default
#: parameters gave no such run in 400 tries: x in {2, 3, 4, 6} x GALLERY x
#: seeds 0-19 at n=36, t=1).
CASES = {
    "algorithm1": ("algorithm1", 36, 1, {}),
    "algorithm1-one-epoch": ("algorithm1", 36, 1, {"num_epochs": 1}),
    "early-stopping": ("early-stopping", 36, 1, {}),
    "early-stopping-one-epoch": ("early-stopping", 36, 1, {"num_epochs": 1}),
    "tradeoff-x2": ("tradeoff", 36, 1, {"x": 2}),
    "tradeoff-x4": ("tradeoff", 36, 1, {"x": 4}),
    "tradeoff-x2-one-epoch": ("tradeoff", 36, 1, {"x": 2, "params": ONE_EPOCH}),
    "multivalued": ("multivalued", 36, 1, {"value_bits": 2}),
    "trb": ("trb", 16, 2, {}),
    # No GALLERY adversary strands non-faulty processes in the epoch loop;
    # knocking out a group does, which is the only way into the early
    # exiters' straggler re-broadcast.
    "early-stopping-knockout": (
        "early-stopping", 36, 4, {"params": LOOSE_BUDGET}
    ),
}
SEEDS = (0, 1)
STATE = ("b", "operative", "decided", "exited_epoch")


def run_entry(case: str, adversary: str, seed: int) -> dict:
    protocol, n, t, keywords = CASES[case]
    width = 4 if protocol == "multivalued" else 2
    if case == "early-stopping-knockout":
        strategy = GroupKnockoutAdversary(range(6))
    else:
        strategy = GALLERY[adversary](n, t, seed)
    run = execute(
        protocol, [pid % width for pid in range(n)], t=t, adversary=strategy,
        seed=seed, **keywords,
    )
    state = [
        [getattr(process, name, None) for name in STATE]
        for process in run.processes
    ]
    canonical = json.dumps(
        {"result": result_to_dict(run.result), "state": state}, sort_keys=True
    )
    if run.ran_deterministic_fallback:
        fallback = "dolev-strong"
    else:
        waited = any(getattr(p, "used_fallback", False) for p in run.processes)
        fallback = "wait" if waited else "none"
    return {
        "digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "rounds": run.result.rounds,
        "fallback": fallback,
        "exit_epochs": sorted({row[3] for row in state if row[3] is not None}),
    }


def run_keys() -> list[str]:
    keys = []
    for case in CASES:
        names = ["knockout"] if case.endswith("knockout") else list(GALLERY)
        keys += [f"{case}/{name}/{seed}" for name in names for seed in SEEDS]
    return keys


TOYS = {
    "flood-min": FloodMinProtocol,
    "majority-rounds": MajorityRoundsProtocol,
    "coin-voting": CoinVotingProtocol,
}
#: (toy, n, rounds, t): every shipped toy protocol at n <= 4.
SEARCHES = [
    (toy, n, rounds, t)
    for toy in ("flood-min", "majority-rounds")
    for n, rounds, t in [
        (2, 2, 1), (3, 1, 1), (3, 2, 1), (3, 3, 2), (4, 2, 1), (4, 3, 2), (4, 4, 3)
    ]
] + [
    ("coin-voting", n, rounds, t)
    for n, rounds, t in [
        (2, 2, 0), (2, 3, 1), (3, 2, 1), (3, 3, 0), (3, 3, 1), (3, 4, 2), (4, 2, 1), (4, 3, 1)
    ]
]


def search_entry(toy: str, n: int, rounds: int, t: int) -> dict:
    """Every input assignment's search output (floats survive JSON exactly)."""
    protocol = TOYS[toy](n, rounds)
    search = probability_band if toy == "coin-voting" else reachable_outcomes
    entry = {}
    for inputs in itertools.product((0, 1), repeat=n):
        found = search(protocol, inputs, t)
        entry["".join(map(str, inputs))] = (
            list(found) if toy == "coin-voting" else sorted(found, key=str)
        )
    return entry


@pytest.mark.parametrize("key", run_keys())
def test_run_fingerprint_is_unchanged(key):
    case, adversary, seed = key.split("/")
    assert run_entry(case, adversary, int(seed)) == GOLDEN["runs"][key]


@pytest.mark.parametrize("search", SEARCHES, ids=lambda s: "-".join(map(str, s)))
def test_search_output_is_unchanged(search):
    key = "-".join(map(str, search))
    assert search_entry(*search) == GOLDEN["searches"][key]


def test_grid_reaches_every_ending():
    """The pinned runs include an early exit, the straggler schedule, and —
    for each of Algorithm 1, its early-stopping variant and Algorithm 4 —
    an inoperative wait and a Dolev-Strong fallback."""
    assert sorted(GOLDEN["runs"]) == sorted(run_keys())
    runs = GOLDEN["runs"]
    budget = ProtocolParams.practical().num_epochs(36, 1)
    assert any(
        entry["exit_epochs"][0] < budget
        for key, entry in runs.items()
        if key.startswith("early-stopping/")
    )
    assert len(runs["early-stopping-knockout/knockout/0"]["exit_epochs"]) == 2
    for protocol in ("algorithm1", "early-stopping", "tradeoff"):
        endings = {
            entry["fallback"]
            for key, entry in runs.items()
            if key.startswith(protocol)
        }
        assert endings == {"none", "wait", "dolev-strong"}, protocol
