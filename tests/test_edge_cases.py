"""Edge-case tests: degenerate graphs through every public entry point."""

import pytest

from repro import BlockDevice, Digraph, DiskGraph, semi_external_dfs
from repro.apps import (
    check_bipartite,
    check_eulerian,
    strongly_connected_components,
    weakly_connected_components,
)
from repro.core import verify_dfs_tree

from .conftest import seal_dfs

ALL_ALGORITHMS = ["edge-by-edge", "edge-by-batch", "divide-star", "divide-td"]


@pytest.fixture
def empty_graph(device):
    return DiskGraph.from_digraph(device, Digraph(0))


@pytest.fixture
def single_node(device):
    return DiskGraph.from_digraph(device, Digraph(1))


@pytest.fixture
def self_loops_only(device):
    return DiskGraph.from_digraph(device, Digraph.from_edges(3, [(0, 0), (1, 1)]))


class TestEmptyGraph:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_dfs(self, empty_graph, algorithm):
        result = semi_external_dfs(empty_graph, memory=1, algorithm=algorithm)
        assert result.order == []
        assert verify_dfs_tree(empty_graph, result.tree).ok

    def test_apps(self, empty_graph):
        artifact = seal_dfs(empty_graph, memory=1)
        assert artifact.toposort_slice() == []
        assert weakly_connected_components(empty_graph) == []
        assert strongly_connected_components(empty_graph, memory=1) == []
        assert check_bipartite(empty_graph, memory=1).bipartite
        assert artifact.find_cycle() is None


class TestSingleNode:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_dfs(self, single_node, algorithm):
        result = semi_external_dfs(single_node, memory=4, algorithm=algorithm)
        assert result.order == [0]

    def test_apps(self, single_node):
        assert seal_dfs(single_node, memory=4).toposort_slice() == [0]
        assert strongly_connected_components(single_node, memory=4) == [[0]]
        assert check_eulerian(single_node).has_circuit


class TestSelfLoopsOnly:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_dfs_ignores_self_loops(self, self_loops_only, algorithm):
        result = semi_external_dfs(self_loops_only, memory=3 * 3 + 16,
                                   algorithm=algorithm)
        assert sorted(result.order) == [0, 1, 2]
        assert verify_dfs_tree(self_loops_only, result.tree).ok

    def test_self_loop_is_a_cycle(self, self_loops_only):
        artifact = seal_dfs(self_loops_only, memory=3 * 3 + 16)
        assert artifact.find_cycle() == [0]


class TestParallelEdges:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_heavy_duplication(self, device, algorithm):
        edges = [(0, 1)] * 50 + [(1, 2)] * 50 + [(2, 0)] * 50
        graph = Digraph.from_edges(3, edges)
        disk = DiskGraph.from_digraph(device, graph)
        result = semi_external_dfs(disk, memory=3 * 3 + 20, algorithm=algorithm)
        assert sorted(result.order) == [0, 1, 2]
        assert verify_dfs_tree(disk, result.tree).ok


class TestStarGraphs:
    """A hub with n-1 spokes: the root sibling group is maximal."""

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_out_star(self, device, algorithm):
        edges = [(0, v) for v in range(1, 80)]
        disk = DiskGraph.from_digraph(device, Digraph.from_edges(80, edges))
        result = semi_external_dfs(disk, memory=3 * 80 + 40, algorithm=algorithm)
        assert result.order[0] == 0
        assert verify_dfs_tree(disk, result.tree).ok

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_in_star(self, device, algorithm):
        edges = [(v, 0) for v in range(1, 80)]
        disk = DiskGraph.from_digraph(device, Digraph.from_edges(80, edges))
        result = semi_external_dfs(disk, memory=3 * 80 + 40, algorithm=algorithm)
        assert verify_dfs_tree(disk, result.tree).ok


class TestMemoryBoundary:
    def test_exactly_3n_works_for_edge_by_edge(self, device):
        graph = Digraph.from_edges(10, [(0, 1), (5, 2)])
        disk = DiskGraph.from_digraph(device, graph)
        result = semi_external_dfs(disk, memory=30, algorithm="edge-by-edge")
        assert sorted(result.order) == list(range(10))

    def test_batch_needs_one_extra_element(self, device):
        from repro.errors import MemoryBudgetExceeded

        graph = Digraph.from_edges(10, [(0, 1)])
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(MemoryBudgetExceeded):
            semi_external_dfs(disk, memory=30, algorithm="edge-by-batch")
        result = semi_external_dfs(disk, memory=31, algorithm="edge-by-batch")
        assert sorted(result.order) == list(range(10))
