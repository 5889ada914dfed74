"""Tests for the merge algorithm (Algorithm 5), incl. the paper's Example 7.1."""

import pytest

from repro.algorithms import SummaryGraph, merge_division, splice_non_root_virtuals
from repro.algorithms.division import Division, Part
from repro.core import SpanningTree


def make_tree(parent_pairs, root, virtual=()):
    tree = SpanningTree()
    tree.add_node(root, virtual=root in virtual)
    tree.root = root
    for child, parent in parent_pairs:
        tree.add_node(child, virtual=child in virtual)
        tree.attach(child, parent)
    return tree


class TestSpliceVirtuals:
    def test_splices_all_but_root(self):
        # γ(100) -> v(101) -> {1, 2}; γ -> 3
        tree = make_tree([(101, 100), (1, 101), (2, 101), (3, 100)], 100,
                         virtual={100, 101})
        count = splice_non_root_virtuals(tree)
        assert count == 1
        assert tree.child_list(100) == [1, 2, 3]
        assert 101 not in tree

    def test_nested_virtuals(self):
        tree = make_tree(
            [(101, 100), (102, 101), (1, 102), (2, 101)], 100,
            virtual={100, 101, 102},
        )
        splice_non_root_virtuals(tree)
        assert tree.child_list(100) == [1, 2]

    def test_keeps_virtual_root(self):
        tree = make_tree([(1, 100)], 100, virtual={100})
        assert splice_non_root_virtuals(tree) == 0
        assert tree.root == 100


class TestPaperExample71:
    """Fig. 5/6(a) -> Fig. 7: Divide-Star on G with the SCC {E, H} contracted.

    Node mapping: A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7 I=8 J=9 K=10 L=11 M=12
    N=13 O=14 P=15; the contraction node EH=16.
    """

    def build_division(self):
        # T_0: A -> {B, EH, K}
        t0 = make_tree([(1, 0), (16, 0), (10, 0)], 0, virtual={16})
        sigma = SummaryGraph()
        for node in [0, 1, 16, 10]:
            sigma.add_node(node)
        sigma.add_edge(0, 1)
        sigma.add_edge(0, 16)
        sigma.add_edge(0, 10)
        # S-edges after contraction: (B,EH), (K,EH), (K,B)
        sigma.add_edge(1, 16)
        sigma.add_edge(10, 16)
        sigma.add_edge(10, 1)

        # Parts: G_1 = subtree(B) = {B, C, D}; G_2 = subtree(EH);
        # G_3 = subtree(K) = {K, L, M, N, O}
        t1 = make_tree([(2, 1), (3, 1)], 1)
        # the recursed DFS-tree of the contracted subgraph: EH -> E -> ...,
        # with H's subtree reached through F (single real child under EH)
        t2 = make_tree([(4, 16), (5, 4), (15, 5), (7, 5), (8, 7), (9, 7), (6, 4)],
                       16, virtual={16})
        t3 = make_tree([(11, 10), (12, 10), (13, 12), (14, 12)], 10)

        parts = [
            Part(1, 1, t1, [1, 2, 3], None),
            Part(2, 16, t2, [4, 5, 15, 7, 8, 9, 6], None),
            Part(3, 10, t3, [10, 11, 12, 13, 14], None),
        ]
        return Division(t0=t0, sigma=sigma, parts=parts, contractions=1)

    def test_merge_orders_subtrees_by_reverse_topo(self):
        division = self.build_division()
        merged = merge_division(
            division, [part.tree for part in division.parts]
        )
        # reverse topological order of the leaves: EH, B, K (Example 7.1)
        assert merged.child_list(0)[0] == 4  # E promoted from EH, first
        children = merged.child_list(0)
        assert children.index(4) < children.index(1) < children.index(10)

    def test_ordered_is_merge_step_one(self):
        """``Division.ordered`` sorts T_0's sibling groups as the merge does,
        and the merge grafts into a copy of it."""
        division = self.build_division()
        assert division.ordered.child_list(0) == [16, 1, 10]
        assert division.t0.child_list(0) == [1, 16, 10]
        merge_division(division, [p.tree for p in division.parts])
        assert division.ordered.child_list(0) == [16, 1, 10]
        assert sorted(division.ordered.nodes) == [0, 1, 10, 16]

    def test_virtual_node_spliced(self):
        division = self.build_division()
        merged = merge_division(division, [p.tree for p in division.parts])
        assert 16 not in merged

    def test_all_real_nodes_present(self):
        division = self.build_division()
        merged = merge_division(division, [p.tree for p in division.parts])
        assert sorted(n for n in merged.preorder()) == list(range(16))

    def test_part_subtree_structure_preserved(self):
        division = self.build_division()
        merged = merge_division(division, [p.tree for p in division.parts])
        assert merged.child_list(10) == [11, 12]
        assert merged.child_list(12) == [13, 14]
        assert merged.child_list(1) == [2, 3]

    def test_wrong_part_root_rejected(self):
        division = self.build_division()
        trees = [p.tree for p in division.parts]
        trees[0], trees[1] = trees[1], trees[0]
        with pytest.raises(ValueError):
            merge_division(division, trees)
