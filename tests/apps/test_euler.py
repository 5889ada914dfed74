"""Tests for Eulerian path/circuit computation."""

import random

import pytest

from repro import DiskGraph
from repro.apps import check_eulerian, eulerian_path
from repro.graph import Digraph, directed_cycle


def eulerian_graph_from_circuit(node_count: int, length: int, seed: int) -> Digraph:
    """Build a graph that IS an Eulerian circuit (a closed random walk)."""
    rng = random.Random(seed)
    walk = [0]
    for _ in range(length - 1):
        walk.append(rng.randrange(node_count))
    walk.append(0)
    graph = Digraph(node_count)
    for u, v in zip(walk, walk[1:]):
        graph.add_edge(u, v)
    return graph


def assert_valid_euler_path(path, graph: Digraph, closed: bool):
    consumed = {}
    for edge in graph.edges():
        consumed[edge] = consumed.get(edge, 0) + 1
    assert len(path) == graph.edge_count + 1
    for u, v in zip(path, path[1:]):
        assert consumed.get((u, v), 0) > 0, f"edge ({u},{v}) not in graph"
        consumed[(u, v)] -= 1
    assert all(count == 0 for count in consumed.values())
    if closed:
        assert path[0] == path[-1]


class TestCheckEulerian:
    def test_cycle_has_circuit(self, device):
        disk = DiskGraph.from_digraph(device, directed_cycle(6))
        report = check_eulerian(disk)
        assert report.has_circuit and report.has_path

    def test_path_graph_has_path_not_circuit(self, device):
        graph = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        report = check_eulerian(DiskGraph.from_digraph(device, graph))
        assert not report.has_circuit
        assert report.has_path
        assert report.start == 0

    def test_imbalanced_graph_rejected(self, device):
        graph = Digraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        report = check_eulerian(DiskGraph.from_digraph(device, graph))
        assert not report.has_path
        assert "imbalance" in report.reason

    def test_many_off_by_one_nodes_rejected(self, device):
        # a 4,000-cycle plus 1,000 chords (2j, 2j+1): 1,000 nodes with one
        # surplus out-edge and 1,000 with one surplus in-edge
        n = 4000
        edges = [(node, (node + 1) % n) for node in range(n)]
        edges += [(2 * j, 2 * j + 1) for j in range(n // 4)]
        graph = Digraph.from_edges(n, edges)
        report = check_eulerian(DiskGraph.from_digraph(device, graph))
        assert not report.has_circuit
        assert not report.has_path
        assert report.reason == "degree imbalance"

    def test_disconnected_edges_rejected(self, device):
        graph = Digraph.from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        report = check_eulerian(DiskGraph.from_digraph(device, graph))
        assert not report.has_circuit
        assert "components" in report.reason

    def test_isolated_nodes_are_fine(self, device):
        graph = Digraph.from_edges(5, [(0, 1), (1, 0)])
        report = check_eulerian(DiskGraph.from_digraph(device, graph))
        assert report.has_circuit

    def test_edgeless_graph(self, device):
        report = check_eulerian(DiskGraph.from_digraph(device, Digraph(3)))
        assert report.has_circuit and report.has_path


class TestEulerianPath:
    def test_circuit_construction(self, device):
        graph = eulerian_graph_from_circuit(12, 60, seed=1)
        disk = DiskGraph.from_digraph(device, graph)
        path = eulerian_path(disk)
        assert path is not None
        assert_valid_euler_path(path, graph, closed=True)

    def test_open_path_construction(self, device):
        graph = Digraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)])
        disk = DiskGraph.from_digraph(device, graph)
        path = eulerian_path(disk)
        assert path is not None
        assert path[0] == 0 and path[-1] == 4
        assert_valid_euler_path(path, graph, closed=False)

    def test_infeasible_returns_none(self, device):
        graph = Digraph.from_edges(3, [(0, 1), (0, 2)])
        assert eulerian_path(DiskGraph.from_digraph(device, graph)) is None

    def test_edgeless_returns_empty(self, device):
        assert eulerian_path(DiskGraph.from_digraph(device, Digraph(2))) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuits(self, device, seed):
        graph = eulerian_graph_from_circuit(8, 40, seed=seed)
        path = eulerian_path(DiskGraph.from_digraph(device, graph))
        assert path is not None
        assert_valid_euler_path(path, graph, closed=True)
