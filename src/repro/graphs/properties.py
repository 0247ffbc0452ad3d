"""Checkers for the subset-quantified Theorem-4 properties of the graph.

Theorem 4: for ``Delta = Theta(log n)``, the random graph ``R(n, Delta/(n-1))``
whp (i) is ``(n/10)``-expanding, (ii) is ``(n/10, Delta/15)``-edge-sparse, and
(iii) has all degrees within ``[19/20, 21/20] * Delta``.  Property (iii) is
read off the degrees directly (``experiments/E-F1.json``'s ``overlay``).

Exact verification of (i) and (ii) is exponential (they quantify over all
vertex subsets), so the checkers verify exhaustively for tiny n and fall back
to randomized certification (sampled subsets, adversarially greedy subsets)
for realistic n — which is exactly how such properties are exercised by the
protocol's adversaries anyway.
"""

from __future__ import annotations

import itertools
import random

from ..runtime.randomness import stable_seed
from .graph import SpreadingGraph

#: Below this vertex count the subset-quantified checks run exhaustively.
EXHAUSTIVE_LIMIT = 14


def is_expanding(
    graph: SpreadingGraph,
    ell: int,
    samples: int = 200,
    seed: int = 0,
) -> bool:
    """Check ``ell``-expansion: every two ``ell``-subsets share an edge.

    Exhaustive for small graphs; otherwise tests ``samples`` random disjoint
    subset pairs plus greedy low-degree pairs (the hardest candidates).
    """
    n = graph.n
    if ell <= 0 or 2 * ell > n:
        return True  # vacuous: no two disjoint subsets of this size exist
    if n <= EXHAUSTIVE_LIMIT:
        vertices = range(n)
        for left in itertools.combinations(vertices, ell):
            remaining = [v for v in vertices if v not in left]
            left_set = frozenset(left)
            for right in itertools.combinations(remaining, ell):
                if graph.edges_between(left_set, frozenset(right)) == 0:
                    return False
        return True

    rng = random.Random(stable_seed("expansion-check", seed))
    order = sorted(range(n), key=graph.degree)
    # Greedy hardest case: the lowest-degree vertices split into two sets.
    low = order[: 2 * ell]
    if graph.edges_between(frozenset(low[:ell]), frozenset(low[ell:])) == 0:
        return False
    for _ in range(samples):
        chosen = rng.sample(range(n), 2 * ell)
        if graph.edges_between(
            frozenset(chosen[:ell]), frozenset(chosen[ell:])
        ) == 0:
            return False
    return True


def is_edge_sparse(
    graph: SpreadingGraph,
    ell: int,
    alpha: float,
    samples: int = 200,
    seed: int = 0,
) -> bool:
    """Check ``(ell, alpha)``-edge-sparsity: every set X with ``|X| <= ell``
    spans at most ``alpha * |X|`` internal edges.

    Exhaustive for small graphs; otherwise certifies via (a) greedy densest
    candidates grown around high-degree vertices and (b) random subsets.
    """
    n = graph.n
    ell = min(ell, n)
    if ell <= 1:
        return True
    if n <= EXHAUSTIVE_LIMIT:
        for size in range(2, ell + 1):
            for subset in itertools.combinations(range(n), size):
                if graph.internal_edge_count(subset) > alpha * size:
                    return False
        return True

    rng = random.Random(stable_seed("sparsity-check", seed))
    # Greedy densest candidate: grow a set around each high-degree vertex by
    # repeatedly adding the neighbour with most links into the set.
    order = sorted(range(n), key=graph.degree, reverse=True)
    for root in order[:5]:
        current = {root}
        while len(current) < ell:
            frontier: dict[int, int] = {}
            for member in current:
                for neighbor in graph.neighbors(member):
                    if neighbor not in current:
                        frontier[neighbor] = frontier.get(neighbor, 0) + 1
            if not frontier:
                break
            best = max(frontier, key=lambda v: (frontier[v], -v))
            current.add(best)
            if graph.internal_edge_count(current) > alpha * len(current):
                return False
    for _ in range(samples):
        size = rng.randrange(2, ell + 1)
        subset = rng.sample(range(n), size)
        if graph.internal_edge_count(subset) > alpha * size:
            return False
    return True
