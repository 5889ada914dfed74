"""Unit tests for the in-memory digraph."""

import pytest

from repro.errors import InvalidGraphError
from repro.graph import Digraph


class TestConstruction:
    def test_empty_graph(self):
        graph = Digraph(0)
        assert graph.node_count == 0
        assert list(graph.edges()) == []

    def test_from_edges(self):
        graph = Digraph.from_edges(3, [(0, 1), (1, 2), (0, 1)])
        assert graph.edge_count == 3
        assert graph.out_neighbors(0) == [1, 1]  # parallel edges kept

    def test_negative_node_count_rejected(self):
        with pytest.raises(InvalidGraphError):
            Digraph(-1)

    def test_out_of_range_edge_rejected(self):
        graph = Digraph(2)
        with pytest.raises(InvalidGraphError):
            graph.add_edge(0, 2)
        with pytest.raises(InvalidGraphError):
            graph.add_edge(-1, 0)


class TestQueries:
    def setup_method(self):
        self.graph = Digraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)])

    def test_degrees(self):
        assert self.graph.out_degree(0) == 2
        assert self.graph.in_degrees() == [1, 1, 2, 1]
        assert self.graph.degrees() == [3, 2, 3, 2]

    def test_edges_iteration_order(self):
        assert list(self.graph.edges()) == [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)]

    def test_size_measure(self):
        assert self.graph.size == 4 + 5

    def test_reversed(self):
        reversed_graph = self.graph.reversed()
        assert sorted(reversed_graph.edges()) == sorted(
            (v, u) for u, v in self.graph.edges()
        )
