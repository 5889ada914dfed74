"""Tests for semi-external single-source reachability."""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BlockDevice, DiskGraph
from repro.apps import reachability_counts, reachable_mask
from repro.graph import Digraph, directed_cycle, random_graph

from ..conftest import seal_dfs


def reachable_set(disk, source, max_passes=0):
    """The nodes label propagation marks from ``source``."""
    marked = reachable_mask(disk, source, max_passes=max_passes)
    return {node for node in range(disk.node_count) if marked[node]}


class TestReachableSet:
    def test_simple_chain(self, device):
        graph = Digraph.from_edges(4, [(0, 1), (1, 2)])
        disk = DiskGraph.from_digraph(device, graph)
        assert reachable_set(disk, 0) == {0, 1, 2}
        assert reachable_set(disk, 2) == {2}
        assert reachable_set(disk, 3) == {3}

    def test_cycle_reaches_everything(self, device):
        disk = DiskGraph.from_digraph(device, directed_cycle(10))
        assert reachable_set(disk, 4) == set(range(10))

    def test_direction_respected(self, device):
        graph = Digraph.from_edges(3, [(0, 1), (2, 1)])
        disk = DiskGraph.from_digraph(device, graph)
        assert reachable_set(disk, 0) == {0, 1}
        assert not reachable_mask(disk, 1)[0]
        assert reachable_mask(disk, 2)[1]

    def test_adversarial_edge_order_still_converges(self, device):
        """Edges stored target-first force one extra pass per hop."""
        hops = 30
        edges = [(u, u + 1) for u in reversed(range(hops))]
        disk = DiskGraph.from_edges(device, hops + 1, edges)
        assert reachable_set(disk, 0) == set(range(hops + 1))

    def test_max_passes_cap(self, device):
        hops = 30
        edges = [(u, u + 1) for u in reversed(range(hops))]
        disk = DiskGraph.from_edges(device, hops + 1, edges)
        partial = reachable_set(disk, 0, max_passes=2)
        assert {0, 1, 2} <= partial
        assert len(partial) < hops + 1

    def test_invalid_source_rejected(self, device):
        disk = DiskGraph.from_digraph(device, Digraph(3))
        with pytest.raises(ValueError):
            reachable_mask(disk, 3)
        with pytest.raises(ValueError):
            reachable_mask(disk, -1)

    def test_counts_helper(self, device):
        graph = Digraph.from_edges(4, [(0, 1), (1, 2)])
        disk = DiskGraph.from_digraph(device, graph)
        artifact = seal_dfs(disk, 3 * 4 + 64, sources=(0, 1, 3))
        assert reachability_counts(artifact, [0, 1, 3]) == [3, 2, 1]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=1, max_value=25), st.integers(0, 99))
    def test_property_matches_networkx(self, node_count, seed):
        graph = random_graph(node_count, 2, seed=seed)
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(node_count))
        nx_graph.add_edges_from(graph.edges())
        with BlockDevice(block_elements=16) as device:
            disk = DiskGraph.from_digraph(device, graph)
            mine = reachable_set(disk, 0)
        theirs = {0} | nx.descendants(nx_graph, 0)
        assert mine == theirs
