"""Tests for cycle detection: one DFS, sealed, then queried."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BlockDevice, DiskGraph
from repro.apps import find_cycle, has_cycle
from repro.graph import Digraph, directed_cycle, random_dag, random_graph

from ..conftest import seal_dfs


class TestFindCycle:
    def test_simple_cycle_found(self, device):
        disk = DiskGraph.from_digraph(device, directed_cycle(10))
        cycle = find_cycle(seal_dfs(disk, memory=3 * 10 + 30))
        assert cycle is not None
        assert len(cycle) == 10

    def test_cycle_edges_are_real(self, device):
        graph = random_graph(100, 4, seed=1)
        disk = DiskGraph.from_digraph(device, graph)
        cycle = find_cycle(seal_dfs(disk, memory=3 * 100 + 120))
        assert cycle is not None
        edges = set(graph.edges())
        for i, node in enumerate(cycle):
            successor = cycle[(i + 1) % len(cycle)]
            assert (node, successor) in edges

    def test_dag_returns_none(self, device):
        disk = DiskGraph.from_digraph(device, random_dag(80, 300, seed=2))
        assert find_cycle(seal_dfs(disk, memory=3 * 80 + 100)) is None

    def test_self_loop_is_a_cycle(self, device):
        graph = Digraph.from_edges(3, [(0, 1), (2, 2)])
        disk = DiskGraph.from_digraph(device, graph)
        assert find_cycle(seal_dfs(disk, memory=3 * 3 + 30)) == [2]

    def test_has_cycle_wrapper(self, device):
        assert has_cycle(seal_dfs(
            DiskGraph.from_digraph(device, directed_cycle(5)), memory=3 * 5 + 20
        ))
        assert not has_cycle(seal_dfs(
            DiskGraph.from_digraph(device, random_dag(20, 50, seed=3)),
            memory=3 * 20 + 40,
        ))

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=2, max_value=25), st.integers(0, 99))
    def test_property_detects_exactly_cyclic_graphs(self, node_count, seed):
        import networkx as nx

        graph = random_graph(node_count, 2, seed=seed)
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(node_count))
        nx_graph.add_edges_from(graph.edges())
        expected = not nx.is_directed_acyclic_graph(nx_graph)
        with BlockDevice(block_elements=16) as device:
            disk = DiskGraph.from_digraph(device, graph)
            artifact = seal_dfs(disk, memory=3 * node_count + 50)
            assert has_cycle(artifact) == expected
