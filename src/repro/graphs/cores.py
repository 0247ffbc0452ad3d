"""Robust cores and dense neighbourhoods (Lemmas 3 and 4).

Lemma 4 states that after removing any set ``T`` of at most ``n/15`` vertices
from a Theorem-4 graph, there remains a set ``A`` of at least
``n - 4/3 |T|`` vertices, disjoint from ``T``, in which every vertex keeps at
least ``Delta/3`` neighbours.  Its proof is constructive: repeatedly peel any
vertex with too many neighbours already peeled.  :func:`robust_core`
implements exactly that peeling, which is also the graph-theoretic skeleton
of the protocol's operative/inoperative classification.

Lemma 3 concerns ``(gamma, delta)``-dense-neighbourhoods: sets around a
vertex whose inner members all keep ``delta`` neighbours inside the set; in a
Theorem-4 graph they are shallow, which :func:`subgraph_diameter` measures.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from .graph import SpreadingGraph


def robust_core(
    graph: SpreadingGraph,
    removed: Iterable[int],
    degree_threshold: int,
) -> frozenset[int]:
    """Largest set disjoint from ``removed`` where every vertex keeps
    ``degree_threshold`` in-set neighbours (the Lemma-4 set ``A``).

    Standard iterative peeling (a generalized k-core): start from
    ``V \\ removed`` and delete vertices whose in-set degree drops below the
    threshold, cascading until stable.  Runs in O(V + E).
    """
    removed_set = set(removed)
    alive = [v not in removed_set for v in range(graph.n)]
    in_degree = [0] * graph.n
    for v in range(graph.n):
        if alive[v]:
            in_degree[v] = sum(1 for u in graph.neighbors(v) if alive[u])

    queue = deque(
        v for v in range(graph.n) if alive[v] and in_degree[v] < degree_threshold
    )
    while queue:
        v = queue.popleft()
        if not alive[v]:
            continue
        alive[v] = False
        for u in graph.neighbors(v):
            if alive[u]:
                in_degree[u] -= 1
                if in_degree[u] < degree_threshold:
                    queue.append(u)
    return frozenset(v for v in range(graph.n) if alive[v])


def subgraph_diameter(graph: SpreadingGraph, members: frozenset[int]) -> int:
    """Exact diameter of the induced subgraph (∞ → ``-1`` if disconnected).

    BFS from every member — fine for the sizes used in tests and experiments.
    """
    member_set = set(members)
    if not member_set:
        return 0
    worst = 0
    for source in member_set:
        distances = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in graph.neighbors(v):
                if u in member_set and u not in distances:
                    distances[u] = distances[v] + 1
                    queue.append(u)
        if len(distances) != len(member_set):
            return -1
        worst = max(worst, max(distances.values()))
    return worst
