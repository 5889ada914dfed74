"""Tests for semi-external topological sort (DFS, seal, topo column)."""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BlockDevice, DiskGraph
from repro.apps import sealed_topological_order
from repro.errors import NotADAGError
from repro.graph import Digraph, directed_cycle, random_dag


class TestTopologicalOrder:
    def test_valid_linearization(self, device):
        dag = random_dag(120, 500, seed=1)
        disk = DiskGraph.from_digraph(device, dag)
        order = sealed_topological_order(disk, memory=3 * 120 + 150)
        position = {node: i for i, node in enumerate(order)}
        assert sorted(order) == list(range(120))
        for u, v in dag.edges():
            assert position[u] < position[v]

    def test_cycle_raises(self, device):
        disk = DiskGraph.from_digraph(device, directed_cycle(30))
        with pytest.raises(NotADAGError):
            sealed_topological_order(disk, memory=3 * 30 + 50)

    def test_self_loop_raises(self, device):
        graph = Digraph.from_edges(3, [(0, 1), (1, 1)])
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(NotADAGError):
            sealed_topological_order(disk, memory=3 * 3 + 50)

    def test_edgeless_graph(self, device):
        disk = DiskGraph.from_digraph(device, Digraph(10))
        order = sealed_topological_order(disk, memory=3 * 10 + 20)
        assert sorted(order) == list(range(10))

    @pytest.mark.parametrize(
        "algorithm", ["edge-by-edge", "edge-by-batch", "divide-star", "divide-td"]
    )
    def test_every_algorithm_usable(self, device, algorithm):
        dag = random_dag(60, 200, seed=2)
        disk = DiskGraph.from_digraph(device, dag)
        order = sealed_topological_order(
            disk, memory=3 * 60 + 100, algorithm=algorithm
        )
        position = {node: i for i, node in enumerate(order)}
        for u, v in dag.edges():
            assert position[u] < position[v]

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=99),
    )
    def test_property_agrees_with_networkx_validity(self, node_count, seed):
        dag = random_dag(node_count, 3 * node_count, seed=seed)
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(node_count))
        nx_graph.add_edges_from(dag.edges())
        assert nx.is_directed_acyclic_graph(nx_graph)
        with BlockDevice(block_elements=16) as device:
            disk = DiskGraph.from_digraph(device, dag)
            order = sealed_topological_order(disk, memory=3 * node_count + 60)
        position = {node: i for i, node in enumerate(order)}
        for u, v in dag.edges():
            assert position[u] < position[v]
