"""A minimal immutable undirected graph used for spreading communication.

The protocols only need neighbourhood queries, degrees, and subgraph degree
counts, so this avoids pulling a full graph library into the hot path.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class SpreadingGraph:
    """Undirected graph on vertices ``0..n-1`` with frozen adjacency."""

    __slots__ = ("n", "_adjacency", "_edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        adjacency: list[set[int]] = [set() for _ in range(n)]
        edge_count = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if v not in adjacency[u]:
                adjacency[u].add(v)
                adjacency[v].add(u)
                edge_count += 1
        self.n = n
        self._adjacency: tuple[frozenset[int], ...] = tuple(
            frozenset(neighbors) for neighbors in adjacency
        )
        self._edge_count = edge_count

    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> frozenset[int]:
        """The neighbour set of vertex ``v``."""
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def internal_edge_count(self, members: Sequence[int] | set[int]) -> int:
        """Number of edges with both endpoints in ``members``."""
        member_set = set(members)
        total = 0
        for u in member_set:
            total += len(self._adjacency[u] & member_set)
        return total // 2

    def edges_between(
        self, left: set[int] | frozenset[int], right: set[int] | frozenset[int]
    ) -> int:
        """Number of edges with one endpoint in each (disjoint) set."""
        small, large = (left, right) if len(left) <= len(right) else (right, left)
        large_set = set(large)
        return sum(len(self._adjacency[u] & large_set) for u in small)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpreadingGraph(n={self.n}, edges={self._edge_count})"
