"""Tests for the synthetic graph generators."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tarjan_scc
from repro.graph import (
    directed_cycle,
    disconnected_clusters,
    grid_graph,
    power_law_graph,
    random_dag,
    random_graph,
    random_tree,
)


def in_degrees(graph):
    degrees = [0] * graph.node_count
    for _, v in graph.edges():
        degrees[v] += 1
    return degrees


class TestRandomGraph:
    def test_edge_count_matches_degree(self):
        graph = random_graph(100, 4, seed=1)
        assert graph.edge_count == 400

    def test_deterministic_per_seed(self):
        first = list(random_graph(50, 3, seed=9).edges())
        second = list(random_graph(50, 3, seed=9).edges())
        assert first == second

    def test_different_seeds_differ(self):
        assert list(random_graph(50, 3, seed=1).edges()) != list(
            random_graph(50, 3, seed=2).edges()
        )

    def test_no_self_loops(self):
        graph = random_graph(60, 5, seed=3)
        assert all(u != v for u, v in graph.edges())

    def test_no_duplicates_by_default(self):
        edges = list(random_graph(40, 4, seed=4).edges())
        assert len(edges) == len(set(edges))

    def test_tiny_graph(self):
        assert random_graph(1, 5, seed=0).edge_count == 0


class TestPowerLawGraph:
    def test_edge_count_close_to_degree(self):
        graph = power_law_graph(500, 5, seed=1)
        # each node beyond the seed emits `degree` edges
        assert graph.edge_count >= 5 * (500 - 5)
        assert graph.edge_count <= 5 * 500

    def test_deterministic_per_seed(self):
        first = list(power_law_graph(80, 4, seed=7).edges())
        second = list(power_law_graph(80, 4, seed=7).edges())
        assert first == second

    def test_degree_skew_grows_with_attractiveness(self):
        """Larger |A|/D -> a larger share of total degree on the top nodes.

        Paper Exp-5: A controls the fraction of high-degree nodes.  With
        small A, attachment is strongly preferential, concentrating degree;
        the *uniform* component grows with A, so concentration falls.
        """
        def top_share(attractiveness):
            graph = power_law_graph(
                2000, 5, attractiveness=attractiveness, seed=3, reverse_fraction=0.0
            )
            degrees = sorted(in_degrees(graph), reverse=True)
            return sum(degrees[:20]) / graph.edge_count

        assert top_share(0.25 * 5) > top_share(4 * 5)

    def test_cycles_present_with_reversals(self):
        graph = power_law_graph(300, 5, seed=2, reverse_fraction=0.3)
        adjacency = {u: graph.out_neighbors(u) for u in range(300)}
        components = tarjan_scc(range(300), adjacency)
        assert any(len(c) > 1 for c in components)

    def test_acyclic_without_reversals(self):
        graph = power_law_graph(300, 5, seed=2, reverse_fraction=0.0)
        adjacency = {u: graph.out_neighbors(u) for u in range(300)}
        components = tarjan_scc(range(300), adjacency)
        assert all(len(c) == 1 for c in components)


class TestStructuredGenerators:
    def test_random_tree_is_arborescence(self):
        tree = random_tree(200, seed=1)
        assert tree.edge_count == 199
        degrees = in_degrees(tree)
        assert degrees[0] == 0
        assert all(d == 1 for d in degrees[1:])

    def test_random_dag_is_acyclic(self):
        dag = random_dag(100, 400, seed=2)
        assert all(u < v for u, v in dag.edges())
        assert dag.edge_count == 400

    def test_random_dag_caps_at_max_edges(self):
        dag = random_dag(5, 1000, seed=0)
        assert dag.edge_count == 10  # 5*4/2

    def test_directed_cycle(self):
        cycle = directed_cycle(5)
        assert sorted(cycle.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]

    def test_grid_graph_shape(self):
        grid = grid_graph(3, 2)
        assert grid.node_count == 6
        # 2 rows * 2 right-edges + 3 cols * 1 down-edge
        assert grid.edge_count == 2 * 2 + 3 * 1

    def test_disconnected_clusters_have_no_cross_edges(self):
        graph = disconnected_clusters([10, 20, 5], seed=3)
        boundaries = [(0, 10), (10, 30), (30, 35)]
        for u, v in graph.edges():
            assert any(lo <= u < hi and lo <= v < hi for lo, hi in boundaries)

    @settings(max_examples=15)
    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=20))
    def test_random_tree_property(self, node_count, seed):
        tree = random_tree(node_count, seed=seed)
        assert all(u < v for u, v in tree.edges())  # parents precede children
        assert tree.edge_count == node_count - 1
