"""Tests for the EdgeByEdge and EdgeByBatch (SEMI-DFS) baselines."""

import pytest

from repro import DiskGraph
from repro.algorithms import edge_by_batch, edge_by_edge
from repro.errors import ConvergenceError, MemoryBudgetExceeded
from repro.graph import (
    Digraph,
    directed_cycle,
    disconnected_clusters,
    grid_graph,
    random_dag,
    random_graph,
)

from ..conftest import assert_valid_dfs_result

SHAPES = [
    ("random", lambda: random_graph(150, 4, seed=1)),
    ("dag", lambda: random_dag(120, 500, seed=2)),
    ("cycle", lambda: directed_cycle(80)),
    ("grid", lambda: grid_graph(10, 10)),
    ("disconnected", lambda: disconnected_clusters([40, 50, 20], seed=3)),
    ("empty-edges", lambda: Digraph(30)),
    ("single-node", lambda: Digraph(1)),
]


@pytest.mark.parametrize("name,factory", SHAPES)
@pytest.mark.parametrize("algorithm", [edge_by_edge, edge_by_batch])
def test_valid_dfs_tree_on_shapes(device, name, factory, algorithm):
    graph = factory()
    disk = DiskGraph.from_digraph(device, graph)
    memory = 3 * max(graph.node_count, 1) + max(64, graph.edge_count // 4)
    result = algorithm(disk, memory)
    assert_valid_dfs_result(result, disk, graph)


class TestEdgeByEdge:
    def test_memory_below_3n_rejected(self, device):
        graph = random_graph(20, 2, seed=1)
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(MemoryBudgetExceeded):
            edge_by_edge(disk, 3 * 20 - 1)

    def test_pass_cap_raises(self, device):
        graph = random_graph(100, 4, seed=2)
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(ConvergenceError):
            edge_by_edge(disk, 3 * 100 + 100, max_passes=1)

    def test_start_node_visited_first(self, device):
        graph = random_graph(60, 3, seed=3)
        disk = DiskGraph.from_digraph(device, graph)
        result = edge_by_edge(disk, 3 * 60 + 100, start=17)
        assert result.order[0] == 17

    def test_reattachment_counter_reported(self, device):
        graph = random_graph(60, 4, seed=4)
        disk = DiskGraph.from_digraph(device, graph)
        result = edge_by_edge(disk, 3 * 60 + 100)
        assert result.details["reattachments"] > 0

    def test_io_is_reads_only(self, device):
        graph = random_graph(40, 3, seed=5)
        disk = DiskGraph.from_digraph(device, graph)
        result = edge_by_edge(disk, 3 * 40 + 100)
        assert result.io.writes == 0
        assert result.io.reads > 0


class TestEdgeByBatch:
    def test_fewer_passes_with_more_memory(self, device_factory):
        graph = random_graph(200, 5, seed=6)
        low_dev, high_dev = device_factory(64), device_factory(64)
        low = edge_by_batch(
            DiskGraph.from_digraph(low_dev, graph), 3 * 200 + 150
        )
        high = edge_by_batch(
            DiskGraph.from_digraph(high_dev, graph), 3 * 200 + 5000
        )
        assert high.passes <= low.passes
        assert high.io.reads <= low.io.reads

    def test_pass_cap_raises(self, device):
        graph = random_graph(150, 5, seed=8)
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(ConvergenceError):
            edge_by_batch(disk, 3 * 150 + 100, max_passes=1)

    def test_restart_priority_order_respected(self, device):
        """γ-children of the result appear in the given priority order."""
        graph = random_graph(80, 3, seed=9)
        disk = DiskGraph.from_digraph(device, graph)
        priority = list(range(79, -1, -1))
        result = edge_by_batch(disk, 3 * 80 + 200, order=priority)
        roots = result.tree.child_list(result.tree.root)
        positions = {node: i for i, node in enumerate(priority)}
        root_positions = [positions[r] for r in roots]
        assert root_positions == sorted(root_positions)
        assert result.order[0] == 79

    def test_order_and_start_mutually_exclusive(self, device):
        graph = random_graph(10, 2, seed=10)
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(ValueError):
            edge_by_batch(disk, 3 * 10 + 50, start=1, order=list(range(10)))

    def test_batches_counted(self, device):
        graph = random_graph(100, 5, seed=11)
        disk = DiskGraph.from_digraph(device, graph)
        result = edge_by_batch(disk, 3 * 100 + 100)
        assert result.details["batches"] >= result.passes
