"""Unit tests for the spreading-graph construction and basic queries."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import SpreadingGraph, gnp_edges, spreading_graph


def adjacency(graph: SpreadingGraph) -> list[frozenset[int]]:
    return [graph.neighbors(v) for v in range(graph.n)]


class TestSpreadingGraph:
    def test_empty(self):
        graph = SpreadingGraph(3, [])
        assert graph.edge_count == 0
        assert graph.degree(0) == 0

    def test_basic_adjacency(self):
        graph = SpreadingGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.neighbors(1) == frozenset({0, 2})
        assert graph.degree(1) == 2
        assert graph.edge_count == 3

    def test_duplicate_edges_collapsed(self):
        graph = SpreadingGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert graph.edge_count == 1

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            SpreadingGraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SpreadingGraph(3, [(0, 3)])

    def test_internal_edge_count(self):
        graph = SpreadingGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert graph.internal_edge_count({0, 1, 2}) == 2
        assert graph.internal_edge_count(range(4)) == 4

    def test_edges_between(self):
        graph = SpreadingGraph(4, [(0, 2), (0, 3), (1, 2)])
        assert graph.edges_between({0, 1}, {2, 3}) == 3
        assert graph.edges_between({0}, {1}) == 0


class TestGnpEdges:
    def test_p_zero_and_one(self):
        rng = random.Random(0)
        assert gnp_edges(10, 0.0, rng) == []
        complete = gnp_edges(5, 1.0, rng)
        assert len(complete) == 10

    def test_rejects_invalid_p(self):
        with pytest.raises(ValueError):
            gnp_edges(5, 1.5, random.Random(0))

    def test_edges_valid_and_unique(self):
        rng = random.Random(42)
        edges = gnp_edges(50, 0.3, rng)
        assert len(set(edges)) == len(edges)
        for u, v in edges:
            assert 0 <= u < v < 50

    def test_density_matches_p(self):
        rng = random.Random(7)
        n, p = 200, 0.25
        edges = gnp_edges(n, p, rng)
        expected = p * n * (n - 1) / 2
        assert 0.85 * expected < len(edges) < 1.15 * expected

    @settings(max_examples=25)
    @given(
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=0, max_value=1000),
    )
    def test_always_well_formed(self, n, p, seed):
        edges = gnp_edges(n, p, random.Random(seed))
        for u, v in edges:
            assert 0 <= u < v < n
        assert len(set(edges)) == len(edges)


class TestSpreadingGraphConstruction:
    def test_deterministic_in_inputs(self):
        a = spreading_graph(64, 12, seed=3)
        b = spreading_graph(64, 12, seed=3)
        assert adjacency(a) == adjacency(b)

    def test_seed_changes_graph(self):
        a = spreading_graph(64, 12, seed=3)
        b = spreading_graph(64, 12, seed=4)
        assert adjacency(a) != adjacency(b)

    def test_degree_concentrates_near_delta(self):
        delta = 24
        graph = spreading_graph(512, delta, seed=0)
        average = 2 * graph.edge_count / graph.n
        assert 0.8 * delta < average < 1.2 * delta

    def test_delta_above_n_gives_complete_graph(self):
        graph = spreading_graph(6, 100, seed=0)
        assert graph.edge_count == 15

    def test_singleton_and_zero_delta(self):
        assert spreading_graph(1, 10).edge_count == 0
        assert spreading_graph(10, 0).edge_count == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            spreading_graph(0, 5)
        with pytest.raises(ValueError):
            spreading_graph(5, -1)
