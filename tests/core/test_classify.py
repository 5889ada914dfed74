"""Tests for the interval-index edge classifier (Section 2 taxonomy)."""

from repro import BlockDevice, DiskGraph
from repro.algorithms import edge_by_batch
from repro.core import (
    EdgeType,
    IntervalIndex,
    Preorder,
    SpanningTree,
    classify_edge_dynamic,
)
from repro.graph import random_graph


def fig2_tree() -> SpanningTree:
    """The paper's Fig. 2(a) spanning tree (letters mapped to ints).

    A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7 I=8 J=9; visit order
    A, B, C, E, D, F, G, H, I, J:   A -> B -> C, A -> E -> D,
    E -> F -> {G, H}, H -> I, F -> J ... (shape chosen to match the
    example's classifications).
    """
    tree = SpanningTree()
    for node in range(10):
        tree.add_node(node)
    tree.root = 0
    # A's children: B then E;  B->C;  E->D, E->F;  F->G, F->H;  H->I, H->J
    for child, parent in [(1, 0), (4, 0), (2, 1), (3, 4), (5, 4), (6, 5), (7, 5), (8, 7), (9, 7)]:
        tree.attach(child, parent)
    return tree


class TestPaperExample:
    def test_preorder_matches_figure(self):
        tree = fig2_tree()
        assert list(tree.preorder()) == [0, 1, 2, 4, 3, 5, 6, 7, 8, 9]

    def test_cd_is_forward_cross(self):
        """(C, D) is the forward-cross edge in Example 2.2 / 3.1."""
        index = IntervalIndex(fig2_tree())
        assert index.classify(2, 3) is EdgeType.FORWARD_CROSS

    def test_ad_is_forward(self):
        """(A, D): A is an ancestor of D."""
        index = IntervalIndex(fig2_tree())
        assert index.classify(0, 3) is EdgeType.FORWARD

    def test_jh_is_backward(self):
        """(J, H): J is a descendant of H."""
        index = IntervalIndex(fig2_tree())
        assert index.classify(9, 7) is EdgeType.BACKWARD

    def test_gd_is_backward_cross(self):
        """(G, D): no ancestor relation, G visited after D."""
        index = IntervalIndex(fig2_tree())
        assert index.classify(6, 3) is EdgeType.BACKWARD_CROSS

    def test_if_is_backward(self):
        """(I, F): I is a descendant of F."""
        index = IntervalIndex(fig2_tree())
        assert index.classify(8, 5) is EdgeType.BACKWARD


class TestMechanics:
    def test_tree_edges_recognized(self):
        tree = fig2_tree()
        index = IntervalIndex(tree)
        for parent, child in tree.tree_edges():
            assert index.classify(parent, child) is EdgeType.TREE

    def test_ancestorship(self):
        index = IntervalIndex(fig2_tree())
        assert index.is_ancestor(0, 9)
        assert index.is_ancestor(5, 8)
        assert not index.is_ancestor(1, 4)
        assert index.is_ancestor(3, 3)  # self-ancestor

    def test_preorder_positions(self):
        tree = fig2_tree()
        index = IntervalIndex(tree)
        order = list(tree.preorder())
        for position, node in enumerate(order):
            assert index.preorder_position(node) == position

    def test_classification_is_exhaustive(self):
        """Every ordered pair of distinct nodes classifies to something."""
        tree = fig2_tree()
        index = IntervalIndex(tree)
        for u in range(10):
            for v in range(10):
                if u != v:
                    assert index.classify(u, v) in EdgeType

    def test_symmetric_relationship(self):
        """(u,v) forward-cross  <=>  (v,u) backward-cross."""
        index = IntervalIndex(fig2_tree())
        for u in range(10):
            for v in range(10):
                if u == v:
                    continue
                kind = index.classify(u, v)
                reverse = index.classify(v, u)
                if kind is EdgeType.FORWARD_CROSS:
                    assert reverse is EdgeType.BACKWARD_CROSS

    def test_covers(self):
        tree = fig2_tree()
        tree.add_node(99)  # detached
        index = IntervalIndex(tree)
        assert index.covers(0)
        assert not index.covers(99)

    def test_self_loops_are_backward(self):
        """A self-loop is backward (the module's taxonomy), for every node
        of a converged tree, its virtual root included, exactly as the
        dynamic classifier says."""
        with BlockDevice(block_elements=32) as device:
            graph = DiskGraph.from_digraph(device, random_graph(60, 4, seed=3))
            tree = edge_by_batch(graph, 3 * 60 + 400).tree
        index = IntervalIndex(tree)
        assert tree.root in tree.virtual
        for node in tree.nodes:
            assert index.classify(node, node) is EdgeType.BACKWARD
            assert classify_edge_dynamic(tree, node, node) is EdgeType.BACKWARD


class TestPreorder:
    def test_walk_gives_preorder_and_subtree_ends(self):
        tree = fig2_tree()
        tree.add_node(99)  # detached: not reachable, not listed
        nodes, ends = Preorder.of(tree)
        assert nodes == [0, 1, 2, 4, 3, 5, 6, 7, 8, 9]
        assert ends == [10, 3, 3, 10, 5, 10, 7, 10, 9, 10]
        for at, node in enumerate(nodes):
            assert nodes[at:ends[at]] == list(tree.subtree(node))

    def test_index_from_a_preorder_equals_the_walked_index(self):
        tree = fig2_tree()
        walked = IntervalIndex(tree)
        given = IntervalIndex(tree, Preorder.of(tree))
        assert (given.pre, given.size) == (walked.pre, walked.size)
        assert walked.size[4] == 7 and walked.pre[4] == 3

    def test_empty_tree(self):
        assert Preorder.of(SpanningTree()) == Preorder([], [])
