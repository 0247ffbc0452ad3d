"""The paper's primary contribution: Algorithm 1 and its building blocks.

* :func:`run_consensus` / :class:`OptimalOmissionsConsensus` — Theorem 1;
* :class:`ParamOmissions` / :func:`run_tradeoff_consensus` — Theorem 3
  (time-for-randomness trade-off, Algorithm 4);
* partition, aggregation, spreading, voting — Algorithms 2-3 and the
  biased-majority rule.
"""

from .aggregation import AggregationResult, group_bits_aggregation
from .consensus import (
    ConsensusRun,
    CoreState,
    OptimalOmissionsConsensus,
    build_processes,
    core_total_rounds,
    deterministic_fallback,
    disseminate,
    epoch_program,
    epoch_rounds,
    optimal_epochs_and_dissemination,
    run_consensus,
    shared_spreading_graph,
)
from .partition import (
    BagTree,
    GroupPartition,
    cached_bag_tree,
    cached_sqrt_partition,
    global_stage_count,
    sqrt_partition,
)
from .early_stopping import EarlyStoppingConsensus, run_early_stopping_consensus
from .multivalued import (
    MultiValuedConsensus,
    fixed_length_binary_consensus,
    run_multivalued_consensus,
)
from .spreading import SpreadingResult, SpreadingState, group_bits_spreading
from .tradeoff import (
    ParamOmissions,
    run_tradeoff_consensus,
    super_partition,
)
from .voting import VoteOutcome, apply_vote_rule

__all__ = [
    "AggregationResult",
    "EarlyStoppingConsensus",
    "run_early_stopping_consensus",
    "MultiValuedConsensus",
    "fixed_length_binary_consensus",
    "run_multivalued_consensus",
    "CoreState",
    "core_total_rounds",
    "deterministic_fallback",
    "disseminate",
    "epoch_program",
    "epoch_rounds",
    "optimal_epochs_and_dissemination",
    "ParamOmissions",
    "run_tradeoff_consensus",
    "super_partition",
    "group_bits_aggregation",
    "ConsensusRun",
    "OptimalOmissionsConsensus",
    "build_processes",
    "run_consensus",
    "shared_spreading_graph",
    "BagTree",
    "GroupPartition",
    "cached_bag_tree",
    "cached_sqrt_partition",
    "global_stage_count",
    "sqrt_partition",
    "SpreadingResult",
    "SpreadingState",
    "group_bits_spreading",
    "VoteOutcome",
    "apply_vote_rule",
]
