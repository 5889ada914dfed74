"""Oracle tests for the paper's theory (Section 5/6).

Lemma 6.3 is the load-bearing claim of the whole approach: an ordered
spanning tree ``T`` is a DFS*-Tree of ``G`` (some sibling reordering of
``T`` is a DFS-Tree) **iff** the graph obtained by dropping forward /
backward edges and replacing every cross edge by its S-edge is a DAG.

These tests check the criterion against a brute-force oracle that tries
*every* sibling permutation of small random trees.
"""

import itertools
import random

from repro.algorithms.sgraph import SummaryGraph, s_edge_endpoints
from repro.core import EdgeType, IntervalIndex, SpanningTree


def random_ordered_tree(node_count: int, rng: random.Random) -> SpanningTree:
    tree = SpanningTree()
    tree.add_node(0)
    tree.root = 0
    for node in range(1, node_count):
        tree.add_node(node)
        tree.attach(node, rng.randrange(node))
    return tree


def random_extra_edges(node_count: int, count: int, rng: random.Random):
    edges = []
    for _ in range(count):
        u, v = rng.randrange(node_count), rng.randrange(node_count)
        if u != v:
            edges.append((u, v))
    return edges


def has_forward_cross(tree: SpanningTree, edges) -> bool:
    index = IntervalIndex(tree)
    return any(
        index.classify(u, v) is EdgeType.FORWARD_CROSS for u, v in edges if u != v
    )


def sibling_permutations(tree: SpanningTree):
    """Yield every sibling reordering of ``tree`` (small trees only)."""
    parents = [n for n in tree.preorder() if tree.child_list(n)]
    child_orders = [list(itertools.permutations(tree.child_list(p))) for p in parents]
    for combination in itertools.product(*child_orders):
        clone = tree.copy()
        for parent, order in zip(parents, combination):
            clone.reorder_children(parent, list(order))
        yield clone


def brute_force_is_dfs_star_tree(tree: SpanningTree, edges) -> bool:
    """Definition 5.3's notion, checked by exhaustive sibling reordering."""
    return any(
        not has_forward_cross(candidate, edges)
        for candidate in sibling_permutations(tree)
    )


def s_graph_criterion(tree: SpanningTree, edges) -> bool:
    """Lemma 6.3: tree edges + S-edges form a DAG."""
    index = IntervalIndex(tree)
    sigma = SummaryGraph()
    for node in tree.preorder():
        sigma.add_node(node)
    for parent, child in tree.tree_edges():
        sigma.add_edge(parent, child)
    for u, v in edges:
        if u == v:
            continue
        kind = index.classify(u, v)
        if kind in (EdgeType.FORWARD_CROSS, EdgeType.BACKWARD_CROSS):
            a, b, _ = s_edge_endpoints(tree, index, u, v)
            sigma.add_edge(a, b)
    return sigma.is_dag()


class TestLemma63:
    def test_criterion_matches_brute_force_on_random_instances(self):
        rng = random.Random(20150531)  # the paper's conference date
        checked = agreements = 0
        for _ in range(400):
            node_count = rng.randint(2, 7)
            tree = random_ordered_tree(node_count, rng)
            edges = random_extra_edges(node_count, rng.randint(0, 8), rng)
            expected = brute_force_is_dfs_star_tree(tree, edges)
            actual = s_graph_criterion(tree, edges)
            checked += 1
            assert actual == expected, (
                f"Lemma 6.3 violated: tree parents "
                f"{dict(tree.parent)}, edges {edges}: "
                f"brute force {expected}, criterion {actual}"
            )
            agreements += 1
        assert checked == agreements == 400

    def test_paper_fig3b_is_not_dfs_star(self):
        """Fig. 3(b): edges (B,E) and (F,C) make the division invalid —
        no ordering of the two subtrees avoids a forward-cross edge."""
        # A=0, B=1, C=2, D=3, E=4, F=5: A -> {B, D}; B -> C; D -> {E, F}
        tree = SpanningTree()
        for node in range(6):
            tree.add_node(node)
        tree.root = 0
        for child, parent in [(1, 0), (3, 0), (2, 1), (4, 3), (5, 3)]:
            tree.attach(child, parent)
        edges = [(1, 4), (5, 2)]  # (B, E), (F, C)
        assert not brute_force_is_dfs_star_tree(tree, edges)
        assert not s_graph_criterion(tree, edges)

    def test_paper_fig3a_is_dfs_star(self):
        """Fig. 3(a): only (B,E) — swapping the subtrees fixes it."""
        tree = SpanningTree()
        for node in range(6):
            tree.add_node(node)
        tree.root = 0
        for child, parent in [(1, 0), (3, 0), (2, 1), (4, 3), (5, 3)]:
            tree.attach(child, parent)
        edges = [(1, 4)]  # (B, E) forward-cross in the current order
        assert has_forward_cross(tree, edges)
        assert brute_force_is_dfs_star_tree(tree, edges)
        assert s_graph_criterion(tree, edges)

    def test_lemma62_pushup_preserves_criterion(self):
        """Replacing a cross edge by its pushed-up S-edge must not change
        DFS*-Tree-ness (Lemma 6.2)."""
        rng = random.Random(99)
        for _ in range(150):
            node_count = rng.randint(3, 7)
            tree = random_ordered_tree(node_count, rng)
            index = IntervalIndex(tree)
            edges = random_extra_edges(node_count, rng.randint(1, 6), rng)
            cross = [
                e
                for e in edges
                if index.classify(*e)
                in (EdgeType.FORWARD_CROSS, EdgeType.BACKWARD_CROSS)
            ]
            if not cross:
                continue
            victim = cross[0]
            a, b, _ = s_edge_endpoints(tree, index, *victim)
            replaced = [e for e in edges if e != victim] + [(a, b)]
            assert brute_force_is_dfs_star_tree(tree, edges) == (
                brute_force_is_dfs_star_tree(tree, replaced)
            )
