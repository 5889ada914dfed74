"""Tests for S-edges, the summary graph Σ, and SCC-aware contraction."""

import random

import pytest

from repro.algorithms import SummaryGraph, contract_sigma_sccs, s_edge_endpoints
from repro.core import EdgeType, IntervalIndex, SpanningTree
from repro.core.tree import VirtualNodeAllocator
from repro.errors import InvalidDivisionError, NotADAGError


def fig5_tree() -> SpanningTree:
    """The paper's Fig. 5(a) spanning tree.

    A=0, B=1, C=2, D=3, E=4, F=5, G=6, H=7, I=8, J=9, K=10, L=11,
    M=12, N=13, O=14, P=15.  A's children: B, E, H, K;
    B -> {C, D}; E -> {F, G}; H -> {I, J}; K -> {L, M}; M -> {N, O};
    F -> P.
    """
    tree = SpanningTree()
    for node in range(16):
        tree.add_node(node)
    tree.root = 0
    for child, parent in [
        (1, 0), (4, 0), (7, 0), (10, 0),
        (2, 1), (3, 1), (5, 4), (6, 4), (8, 7), (9, 7),
        (11, 10), (12, 10), (13, 12), (14, 12), (15, 5),
    ]:
        tree.attach(child, parent)
    return tree


class TestSEdges:
    def test_paper_pushup_example(self):
        """(H, F) pushes up to the S-edge (H, E) in Fig. 5."""
        tree = fig5_tree()
        index = IntervalIndex(tree)
        a, b, lca = s_edge_endpoints(tree, index, 7, 5)  # (H, F)
        assert (a, b) == (7, 4)  # (H, E)
        assert lca == 0  # A

    def test_s_edge_endpoints_are_siblings(self):
        tree = fig5_tree()
        index = IntervalIndex(tree)
        rng = random.Random(3)
        for _ in range(200):
            u, v = rng.randrange(16), rng.randrange(16)
            if u == v:
                continue
            kind = index.classify(u, v)
            if kind not in (EdgeType.FORWARD_CROSS, EdgeType.BACKWARD_CROSS):
                continue
            a, b, lca = s_edge_endpoints(tree, index, u, v)
            assert tree.parent[a] == lca
            assert tree.parent[b] == lca
            assert a != b

    def test_s_edge_preserves_sides(self):
        """a is an ancestor-or-self of u; b of v."""
        tree = fig5_tree()
        index = IntervalIndex(tree)
        a, b, _ = s_edge_endpoints(tree, index, 15, 9)  # (P, J): deep cross
        assert index.is_ancestor(a, 15)
        assert index.is_ancestor(b, 9)

    def test_non_cross_edge_rejected(self):
        tree = fig5_tree()
        index = IntervalIndex(tree)
        with pytest.raises(InvalidDivisionError):
            s_edge_endpoints(tree, index, 0, 3)  # (A, D) is forward


class TestSummaryGraph:
    def test_add_and_dedup(self):
        sigma = SummaryGraph()
        for node in [0, 1, 2]:
            sigma.add_node(node)
        sigma.add_edge(0, 1)
        sigma.add_edge(0, 1)
        sigma.add_edge(1, 2)
        assert sigma.edge_count == 2

    def test_self_edges_ignored(self):
        sigma = SummaryGraph()
        sigma.add_node(0)
        sigma.add_edge(0, 0)
        assert sigma.edge_count == 0

    def test_edge_outside_node_set_rejected(self):
        sigma = SummaryGraph()
        sigma.add_node(0)
        with pytest.raises(InvalidDivisionError):
            sigma.add_edge(0, 5)

    def test_dag_detection(self):
        sigma = SummaryGraph()
        for node in range(3):
            sigma.add_node(node)
        sigma.add_edge(0, 1)
        sigma.add_edge(1, 2)
        assert sigma.is_dag()
        sigma.add_edge(2, 0)
        assert not sigma.is_dag()

    def test_topological_order_requires_dag(self):
        sigma = SummaryGraph()
        sigma.add_node(0)
        sigma.add_node(1)
        sigma.add_edge(0, 1)
        sigma.add_edge(1, 0)
        with pytest.raises(NotADAGError):
            sigma.reverse_topological_order()

    def test_contract_rewires_edges(self):
        sigma = SummaryGraph()
        for node in range(5):
            sigma.add_node(node)
        sigma.add_edge(0, 1)
        sigma.add_edge(1, 2)
        sigma.add_edge(2, 1)
        sigma.add_edge(2, 3)
        sigma.add_edge(4, 1)
        sigma.contract([1, 2], 99)
        assert sigma.nodes == {0, 3, 4, 99}
        assert sorted(sigma.edges()) == [(0, 99), (4, 99), (99, 3)]
        assert sigma.is_dag()

    def test_restrict(self):
        sigma = SummaryGraph()
        for node in range(4):
            sigma.add_node(node)
        sigma.add_edge(0, 1)
        sigma.add_edge(1, 3)
        sigma.restrict({0, 1})
        assert sigma.nodes == {0, 1}
        assert list(sigma.edges()) == [(0, 1)]


class TestContraction:
    def test_paper_example_eh_contraction(self):
        """Fig. 5/6(a): the SCC {E, H} contracts into a virtual node."""
        tree = fig5_tree()
        sigma = SummaryGraph()
        for node in [0, 1, 4, 7, 10]:  # A, B, E, H, K
            sigma.add_node(node)
        for child in [1, 4, 7, 10]:
            sigma.add_edge(0, child)
        # S-edges of the example: (B,EH) as (B,E), (E,H), (H,E), (K,E), (K,B)
        sigma.add_edge(1, 4)
        sigma.add_edge(4, 7)
        sigma.add_edge(7, 4)
        sigma.add_edge(10, 4)
        sigma.add_edge(10, 1)
        allocator = VirtualNodeAllocator(16)
        contractions = contract_sigma_sccs(sigma, tree, allocator)
        assert len(contractions) == 1
        virtual, members = contractions[0]
        assert virtual == 16
        assert members == [4, 7]  # E, H in sibling order
        assert sigma.is_dag()
        # the tree now has the virtual node between A and {E, H}
        assert tree.parent[virtual] == 0
        assert tree.parent[4] == virtual
        assert tree.parent[7] == virtual
        assert tree.is_virtual(virtual)
        # A's children: B, K, and the virtual node
        assert set(tree.child_list(0)) == {1, 10, virtual}

    def test_no_contraction_on_dag(self):
        tree = fig5_tree()
        sigma = SummaryGraph()
        for node in [0, 1, 4]:
            sigma.add_node(node)
        sigma.add_edge(0, 1)
        sigma.add_edge(1, 4)
        assert contract_sigma_sccs(sigma, tree, VirtualNodeAllocator(16)) == []

    def test_non_sibling_scc_rejected(self):
        tree = fig5_tree()
        sigma = SummaryGraph()
        sigma.add_node(1)   # B (child of A)
        sigma.add_node(2)   # C (child of B)  -- not siblings
        sigma.add_edge(1, 2)
        sigma.add_edge(2, 1)
        with pytest.raises(InvalidDivisionError):
            contract_sigma_sccs(sigma, tree, VirtualNodeAllocator(16))
