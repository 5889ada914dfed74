"""Tests for semi-external articulation points and bridges."""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BlockDevice, DiskGraph
from repro.apps.connectivity import connectivity_report
from repro.graph import Digraph, directed_cycle, grid_graph, random_graph


def oracle(graph: Digraph):
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(graph.node_count))
    nx_graph.add_edges_from((u, v) for u, v in graph.edges() if u != v)
    points = set(nx.articulation_points(nx_graph))
    cut_edges = {frozenset(edge) for edge in nx.bridges(nx_graph)}
    return points, cut_edges


def normalize_bridges(found):
    return {frozenset(edge) for edge in found}


class TestKnownShapes:
    def test_path_all_internal_nodes_cut(self, device):
        graph = Digraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        disk = DiskGraph.from_digraph(device, graph)
        report = connectivity_report(disk, memory=3 * 5 + 40)
        assert report.articulation_points == {1, 2, 3}
        assert normalize_bridges(report.bridges) == {
            frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}),
            frozenset({3, 4}),
        }

    def test_cycle_has_no_cuts(self, device):
        disk = DiskGraph.from_digraph(device, directed_cycle(8))
        report = connectivity_report(disk, memory=3 * 8 + 40)
        assert report.articulation_points == set()
        assert report.bridges == set()
        assert report.is_biconnected(8)

    def test_barbell_middle_is_cut(self, device):
        # two triangles joined through node 2-3 bridge
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        graph = Digraph.from_edges(6, edges)
        disk = DiskGraph.from_digraph(device, graph)
        report = connectivity_report(disk, memory=3 * 6 + 50)
        assert report.articulation_points == {2, 3}
        assert normalize_bridges(report.bridges) == {frozenset({2, 3})}

    def test_grid_is_biconnected_enough(self, device):
        graph = grid_graph(4, 4)
        disk = DiskGraph.from_digraph(device, graph)
        points, cut_edges = oracle(graph)
        report = connectivity_report(disk, memory=3 * 16 + 80)
        assert report.articulation_points == points
        assert normalize_bridges(report.bridges) == cut_edges

    def test_antiparallel_pair_is_one_undirected_edge(self, device):
        """(u,v) and (v,u) collapse: the edge is still a bridge."""
        graph = Digraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
        disk = DiskGraph.from_digraph(device, graph)
        report = connectivity_report(disk, memory=3 * 3 + 30)
        assert normalize_bridges(report.bridges) == {
            frozenset({0, 1}), frozenset({1, 2}),
        }

    def test_self_loops_ignored(self, device):
        graph = Digraph.from_edges(3, [(0, 0), (0, 1), (1, 2)])
        disk = DiskGraph.from_digraph(device, graph)
        report = connectivity_report(disk, memory=3 * 3 + 30)
        assert report.articulation_points == {1}


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, device_factory, seed):
        graph = random_graph(60, 1.2, seed=seed)  # sparse -> many cuts
        disk = DiskGraph.from_digraph(device_factory(32), graph)
        points, cut_edges = oracle(graph)
        report = connectivity_report(disk, memory=3 * 60 + 120)
        assert report.articulation_points == points
        assert normalize_bridges(report.bridges) == cut_edges

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=2, max_value=25), st.integers(0, 99))
    def test_property_matches_networkx(self, node_count, seed):
        graph = random_graph(node_count, 1.5, seed=seed)
        points, cut_edges = oracle(graph)
        with BlockDevice(block_elements=16) as device:
            disk = DiskGraph.from_digraph(device, graph)
            report = connectivity_report(disk, memory=3 * node_count + 60)
        assert report.articulation_points == points
        assert normalize_bridges(report.bridges) == cut_edges


class TestBiconnectedComponents:
    def nx_oracle(self, graph):
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(graph.node_count))
        nx_graph.add_edges_from((u, v) for u, v in graph.edges() if u != v)
        components = []
        for component in nx.biconnected_component_edges(nx_graph):
            components.append(
                frozenset(tuple(sorted(edge)) for edge in component)
            )
        return sorted(components, key=len, reverse=True)

    def mine(self, device, graph, memory):
        from repro.apps.connectivity import biconnected_components

        disk = DiskGraph.from_digraph(device, graph)
        found = biconnected_components(disk, memory)
        return sorted((frozenset(c) for c in found), key=len, reverse=True)

    def test_two_triangles_and_bridge(self, device):
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        graph = Digraph.from_edges(6, edges)
        components = self.mine(device, graph, memory=3 * 6 + 50)
        assert sorted(components, key=sorted) == sorted(
            self.nx_oracle(graph), key=sorted
        )
        assert len(components) == 3  # triangle, triangle, bridge

    def test_cycle_is_one_component(self, device):
        graph = directed_cycle(7)
        components = self.mine(device, graph, memory=3 * 7 + 40)
        assert len(components) == 1
        assert len(components[0]) == 7

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matches_networkx(self, device_factory, seed):
        graph = random_graph(50, 1.3, seed=seed)
        mine = self.mine(device_factory(32), graph, memory=3 * 50 + 120)
        assert sorted(mine, key=sorted) == sorted(
            self.nx_oracle(graph), key=sorted
        )

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=2, max_value=22), st.integers(0, 99))
    def test_property_matches_networkx(self, node_count, seed):
        graph = random_graph(node_count, 1.6, seed=seed)
        with BlockDevice(block_elements=16) as device:
            mine = self.mine(device, graph, memory=3 * node_count + 60)
        assert sorted(mine, key=sorted) == sorted(
            self.nx_oracle(graph), key=sorted
        )
