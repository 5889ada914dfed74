"""The artifact apps API: graph answers, no recomputation.

``toposort``/``cycles``/``reachability`` answer from a sealed
:class:`~repro.serve.TreeArtifact`; each answer must equal one computed
from the raw graph by an independent oracle (a written-out DFS plus
back-edge scan, or networkx).
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro import BlockDevice, DiskGraph, semi_external_dfs
from repro.apps import (
    find_cycle,
    has_cycle,
    reachable_set,
    reaches,
    topological_order,
)
from repro.errors import QueryError
from repro.graph import random_graph
from repro.graph.digraph import Digraph
from repro.serve import seal_result

from ..conftest import dfs_back_edge_scan


def seal(device, graph, sources=()):
    disk = DiskGraph.from_digraph(device, graph)
    memory = 3 * graph.node_count + 64
    result = semi_external_dfs(disk, memory)
    return disk, memory, seal_result(
        disk, result, memory=memory, sources=sources
    )


class TestArtifactOverloads:
    def test_toposort_matches_graph_signature(self, device):
        graph = Digraph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        disk, memory, artifact = seal(device, graph)
        _, finish_order = dfs_back_edge_scan(disk, memory)
        assert topological_order(artifact) == finish_order

    def test_cycles_match_graph_signature(self, device):
        graph = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 1), (3, 3)])
        disk, memory, artifact = seal(device, graph)
        witness, _ = dfs_back_edge_scan(disk, memory)
        assert witness is not None
        assert has_cycle(artifact)
        assert find_cycle(artifact) == witness

    def test_reachability_matches_graph_signature(self, device):
        graph = random_graph(25, 2, seed=3)
        disk, memory, artifact = seal(device, graph, sources=(0,))
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(graph.node_count))
        nx_graph.add_edges_from(graph.edges())
        expected = {0} | nx.descendants(nx_graph, 0)
        assert reachable_set(artifact, 0) == expected
        for v in range(25):
            assert reaches(artifact, 0, v) == (v in expected)

    def test_artifact_answers_do_no_io(self, device):
        graph = random_graph(30, 2, seed=4)
        disk, memory, artifact = seal(device, graph, sources=(0,))
        baseline = device.stats.snapshot()
        topological_order_or_cycle(artifact)
        reachable_set(artifact, 0)
        delta = device.stats.snapshot() - baseline
        assert (delta.reads, delta.writes) == (0, 0)

    def test_undecidable_reachability_is_typed(self, device):
        """An unpinned pair on a cyclic artifact can be undecidable —
        never silently wrong."""
        graph = Digraph.from_edges(
            6, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]
        )
        disk, memory, artifact = seal(device, graph)  # no pinned sources
        # 3 sits in the SCC {2, 3}; nothing pins it, 0 is not in its
        # subtree, and a cyclic graph has no topo certificate
        with pytest.raises(QueryError) as exc:
            reaches(artifact, 3, 0)
        assert exc.value.code == "undecidable"


def topological_order_or_cycle(artifact):
    try:
        return topological_order(artifact)
    except Exception:
        return find_cycle(artifact)
