"""Σ from cut labels equals Σ from the per-edge pushup (division step 1).

Division step 1 labels each node with its deepest cut ancestor, keeps the
distinct label pairs of unrelated cut nodes and pushes each pair up once.
The reference, ``oracle_sigma``, pushes *every* cross edge up to its
S-edge (Definition 6.3) and keeps it when the LCA is an expanded cut
node.  The two must give identical Σ node and edge sets on random and
power-law graphs, restructured trees, star and budgeted cut trees, both
kernels, and sparse ids.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BlockDevice, DiskGraph, MemoryBudget
from repro.algorithms import (
    SummaryGraph,
    build_cut_tree,
    initial_star_tree,
    restructure,
    s_edge_endpoints,
    star_cut,
)
from repro.algorithms.division import collect_sigma, divide_with_cut
from repro.core.classify import CutLabels, EdgeType, IntervalIndex
from repro.core.tree import SpanningTree, VirtualNodeAllocator
from repro.graph import power_law_graph, random_graph
from repro.kernels import available_backends, numpy_available

#: Relabelling stride for the sparse-id case: the numpy kernel's dense
#: indexes then hold thousands of slots per node.
SPARSE_STRIDE = 7919

CROSS = (EdgeType.FORWARD_CROSS, EdgeType.BACKWARD_CROSS)


def oracle_sigma(edge_file, tree, cut_nodes, expanded):
    """Step 1 as the per-edge pushup: every cross edge, one pushup each."""
    index = IntervalIndex(tree)
    sigma = SummaryGraph()
    for node in cut_nodes:
        sigma.add_node(node)
    for parent_node in expanded:
        for child in tree.children(parent_node):
            sigma.add_edge(parent_node, child)
    for u, v in edge_file.scan():
        if u != v and index.classify(u, v) in CROSS:
            a, b, lca = s_edge_endpoints(tree, index, u, v)
            if lca in expanded:
                sigma.add_edge(a, b)
    return sigma


def sparse_copy(device, tree, edge_file):
    """The same tree and edges with every id multiplied by the stride."""
    def spread(node):
        return None if node is None else node * SPARSE_STRIDE

    parent = {spread(node): spread(up) for node, up in tree.parent.items()}
    children = {
        spread(node): [spread(child) for child in tree.child_list(node)]
        for node in tree.parent
    }
    copy = SpanningTree.from_structure(
        spread(tree.root), parent, children, {spread(v) for v in tree.virtual}
    )
    edges = [(spread(u), spread(v)) for u, v in edge_file.scan()]
    return copy, DiskGraph.from_edges(device, 0, edges, validate=False).edge_file


def restructured(device, graph, passes, slack):
    """A mid-run tree: ``passes`` restructure passes under a small budget."""
    disk = DiskGraph.from_digraph(device, graph)
    tree = initial_star_tree(disk, VirtualNodeAllocator(graph.node_count))
    budget = MemoryBudget(3 * graph.node_count + slack)
    budget.charge("tree", budget.tree_charge(graph.node_count))
    for _ in range(passes):
        outcome = restructure(disk.edge_file, tree, budget)
        tree = outcome.tree
        if not outcome.update:
            break
    return tree, disk.edge_file


def assert_same_sigma(actual, expected):
    assert actual.nodes == expected.nodes
    assert sorted(actual.edges()) == sorted(expected.edges())


@st.composite
def division_cases(draw):
    return {
        "power_law": draw(st.booleans()),
        "nodes": draw(st.integers(min_value=2, max_value=120)),
        "degree": draw(st.integers(min_value=1, max_value=6)),
        "seed": draw(st.integers(min_value=0, max_value=10**6)),
        "passes": draw(st.integers(min_value=0, max_value=3)),
        "slack": draw(st.integers(min_value=2, max_value=200)),
        "cut_budget": draw(st.sampled_from([None, 4, 16, 64, 400, 10**6])),
        "kernel": draw(st.sampled_from(available_backends())),
        "sparse": draw(st.booleans()),
        "block": draw(st.sampled_from([8, 32, 256])),
    }


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(division_cases())
def test_cut_label_sigma_matches_the_pushup_oracle(case):
    make = power_law_graph if case["power_law"] else random_graph
    graph = make(case["nodes"], case["degree"], seed=case["seed"])
    with BlockDevice(block_elements=case["block"], kernel=case["kernel"]) as device:
        tree, edge_file = restructured(device, graph, case["passes"], case["slack"])
        if case["sparse"]:
            tree, edge_file = sparse_copy(device, tree, edge_file)
        if case["cut_budget"] is None:
            cut_nodes, expanded = star_cut(tree)
        else:
            cut_nodes, expanded = build_cut_tree(tree, case["cut_budget"])
        if len(cut_nodes) <= 1 or not expanded:
            return  # divide_with_cut rejects these before step 1
        expected = oracle_sigma(edge_file, tree, cut_nodes, expanded)
        actual = collect_sigma(edge_file, tree, cut_nodes, expanded)
        assert_same_sigma(actual, expected)


@pytest.mark.parametrize("kernel", available_backends())
@pytest.mark.parametrize("cut_budget", [None, 9, 100, 10**6])
def test_every_cut_shape_on_a_fixed_graph(kernel, cut_budget):
    graph = random_graph(200, 4, seed=3)
    with BlockDevice(block_elements=32, kernel=kernel) as device:
        tree, edge_file = restructured(device, graph, 2, 50)
        if cut_budget is None:
            cut_nodes, expanded = star_cut(tree)
        else:
            cut_nodes, expanded = build_cut_tree(tree, cut_budget)
        assert len(cut_nodes) > 1 and expanded
        assert_same_sigma(
            collect_sigma(edge_file, tree, cut_nodes, expanded),
            oracle_sigma(edge_file, tree, cut_nodes, expanded),
        )


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_sparse_ids_match_the_oracle():
    graph = power_law_graph(150, 4, seed=5)
    with BlockDevice(block_elements=32, kernel="numpy") as device:
        tree, edge_file = restructured(device, graph, 1, 40)
        tree, edge_file = sparse_copy(device, tree, edge_file)
        cut_nodes, expanded = build_cut_tree(tree, 400)
        assert_same_sigma(
            collect_sigma(edge_file, tree, cut_nodes, expanded),
            oracle_sigma(edge_file, tree, cut_nodes, expanded),
        )


def tree_shape(tree):
    return tree.root, tree.parent, tree.child_lists, tree.virtual


def sparse_division(kernel):
    """One Divide-TD division of a sparse-id copy, as comparable values."""
    graph = power_law_graph(150, 4, seed=5)
    with BlockDevice(block_elements=32, kernel=kernel) as device:
        tree, edge_file = restructured(device, graph, 1, 40)
        tree, edge_file = sparse_copy(device, tree, edge_file)
        cut_nodes, expanded = build_cut_tree(tree, 400)
        allocator = VirtualNodeAllocator(max(tree.parent) + 1)
        division = divide_with_cut(
            edge_file, tree, cut_nodes, expanded, allocator
        )
        assert division is not None and division.contractions
        return (
            tree_shape(division.t0),
            division.sigma.nodes,
            sorted(division.sigma.edges()),
            [
                (part.index, part.root, tree_shape(part.tree),
                 part.real_nodes, list(part.edge_file.scan()))
                for part in division.parts
            ],
        )


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_sparse_ids_divide_identically_on_both_kernels():
    """T_0, Σ, every part's tree and every part file match across kernels
    when node ids are spread far apart."""
    assert sparse_division("numpy") == sparse_division("python")


class TestCutLabels:
    def tree(self):
        """0 -> (1 -> (3, 4), 2 -> (5 -> 6))."""
        parent = {0: None, 1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 5}
        children = {0: [1, 2], 1: [3, 4], 2: [5], 5: [6]}
        return SpanningTree.from_structure(0, parent, children, set())

    def test_labels_are_deepest_cut_ancestors(self):
        labels = CutLabels(self.tree(), {0, 1, 2})
        assert labels.order == [0, 1, 2]
        deepest = {0: 0, 1: 1, 2: 2, 3: 1, 4: 1, 5: 2, 6: 2}
        assert {n: labels.order[r] for n, r in labels.label.items()} == deepest
        assert labels.end == [3, 2, 3]

    def test_ancestry_among_cut_nodes(self):
        labels = CutLabels(self.tree(), {0, 1, 2, 5})
        assert labels.order == [0, 1, 2, 5]
        assert labels.end == [4, 2, 4, 4]
        assert labels.is_ancestor(2, 5) and labels.is_ancestor(0, 1)
        assert labels.is_ancestor(5, 5)
        assert not labels.is_ancestor(1, 5) and not labels.is_ancestor(5, 2)

    def test_root_must_be_in_the_cut(self):
        with pytest.raises(ValueError, match="root"):
            CutLabels(self.tree(), {1, 2})
