"""Tests for the Theorem-4 property checkers and Lemma-3/4 core machinery."""

import math

from repro.graphs import (
    SpreadingGraph,
    dense_neighborhood_layers,
    is_edge_sparse,
    is_expanding,
    robust_core,
    spreading_graph,
    subgraph_diameter,
)


def complete_graph(n: int) -> SpreadingGraph:
    return SpreadingGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> SpreadingGraph:
    return SpreadingGraph(n, [(i, (i + 1) % n) for i in range(n)])


class TestExpansion:
    def test_complete_graph_expands(self):
        assert is_expanding(complete_graph(10), ell=2)

    def test_disconnected_graph_fails(self):
        two_triangles = SpreadingGraph(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert not is_expanding(two_triangles, ell=3)

    def test_vacuous_for_large_ell(self):
        assert is_expanding(cycle_graph(4), ell=3)

    def test_random_graph_expands_at_log_degree(self):
        graph = spreading_graph(300, 28, seed=2)
        assert is_expanding(graph, ell=30, samples=100, seed=2)

    def test_sampling_path_detects_disconnection(self):
        # Two cliques of 20: lowest-degree greedy split finds no crossing edge.
        edges = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        edges += [(u, v) for u in range(20, 40) for v in range(u + 1, 40)]
        graph = SpreadingGraph(40, edges)
        assert not is_expanding(graph, ell=20, samples=300, seed=0)


class TestEdgeSparsity:
    def test_cycle_is_sparse(self):
        assert is_edge_sparse(cycle_graph(12), ell=6, alpha=1.0)

    def test_clique_is_dense(self):
        assert not is_edge_sparse(complete_graph(12), ell=6, alpha=1.0)

    def test_trivial_ell(self):
        assert is_edge_sparse(cycle_graph(5), ell=1, alpha=0.1)

    def test_random_graph_sparse_at_generous_alpha(self):
        graph = spreading_graph(300, 28, seed=3)
        assert is_edge_sparse(graph, ell=30, alpha=28 / 2, samples=100, seed=3)

    def test_planted_clique_detected(self):
        base = spreading_graph(120, 10, seed=4)
        edges = list(base.edges())
        edges += [(u, v) for u in range(10) for v in range(u + 1, 10)]
        planted = SpreadingGraph(120, edges)
        assert not is_edge_sparse(planted, ell=12, alpha=2.0, samples=400, seed=4)


class TestRobustCore:
    def test_no_removals_high_threshold_keeps_clique(self):
        graph = complete_graph(8)
        core = robust_core(graph, removed=[], degree_threshold=7)
        assert core == frozenset(range(8))

    def test_threshold_above_degree_empties(self):
        graph = cycle_graph(8)
        assert robust_core(graph, [], degree_threshold=3) == frozenset()

    def test_removals_cascade(self):
        # A path 0-1-2-3: removing 1 leaves 0 isolated at threshold 1.
        path = SpreadingGraph(4, [(0, 1), (1, 2), (2, 3)])
        core = robust_core(path, removed=[1], degree_threshold=1)
        assert core == frozenset({2, 3})

    def test_lemma4_size_bound_on_random_graph(self):
        """Lemma 4: removing |T| <= n/15 vertices leaves a core of size
        >= n - 4/3 |T| where everyone keeps Delta/3 in-core neighbours."""
        n, delta = 450, 30
        graph = spreading_graph(n, delta, seed=6)
        removed = list(range(n // 15))
        core = robust_core(graph, removed, degree_threshold=delta // 3)
        assert len(core) >= n - (4 * len(removed)) // 3 - 1
        members = frozenset(core)
        for vertex in core:
            assert graph.degree_within(vertex, members) >= delta // 3

    def test_adversarial_removal_of_hub_neighbourhood(self):
        n, delta = 300, 24
        graph = spreading_graph(n, delta, seed=7)
        victim_neighbors = sorted(graph.neighbors(0))[: n // 20]
        core = robust_core(graph, victim_neighbors, delta // 3)
        assert len(core) >= n - 3 * len(victim_neighbors)


class TestComponentsAndDiameter:
    def test_diameter_cycle(self):
        assert subgraph_diameter(cycle_graph(8), frozenset(range(8))) == 4

    def test_diameter_disconnected(self):
        graph = SpreadingGraph(4, [(0, 1)])
        assert subgraph_diameter(graph, frozenset(range(4))) == -1

    def test_diameter_empty(self):
        assert subgraph_diameter(cycle_graph(3), frozenset()) == 0

    def test_random_core_is_shallow(self):
        """The 'shallow' half of Theorem 4's consequence: the robust core of
        a log-degree random graph has O(log n) diameter."""
        n, delta = 350, 26
        graph = spreading_graph(n, delta, seed=8)
        core = robust_core(graph, removed=range(12), degree_threshold=delta // 3)
        assert len(core) > 0.9 * n
        diameter = subgraph_diameter(graph, core)
        assert 0 < diameter <= 2 * math.ceil(math.log2(n))


class TestDenseNeighborhoods:
    def test_layers_grow_geometrically(self):
        """Lemma 3: BFS balls within a Delta/3 core double until ~n/10."""
        n, delta = 400, 28
        graph = spreading_graph(n, delta, seed=9)
        core = robust_core(graph, removed=[], degree_threshold=delta // 3)
        vertex = min(core)
        layers = dense_neighborhood_layers(graph, vertex, core, max_depth=4)
        for depth in range(1, 4):
            assert layers[depth] >= min(2**depth, n // 10)

    def test_requires_membership(self):
        graph = cycle_graph(5)
        core = frozenset({0, 1, 2})
        try:
            dense_neighborhood_layers(graph, 4, core, 2)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError for non-member vertex")
