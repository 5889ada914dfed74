"""Tests for the division core: the four validity properties of Section 5.

node-coverage, contractibility, independence (edge-disjointness, Theorem
5.1), and DFS-preservability (Σ is a DAG, Theorem 6.1) are asserted for
real divisions produced on random graphs.
"""

import os
import random

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro import BlockDevice, DiskGraph
from repro.algorithms import (
    divide_with_cut,
    initial_star_tree,
    merge_division,
    restructure,
    star_cut,
    build_cut_tree,
)
from repro.algorithms.divide_conquer import _division_first_real
from repro.core.tree import VirtualNodeAllocator
from repro.graph import random_graph, power_law_graph

from .test_cut_labels import division_cases, restructured, sparse_copy


def prepared_division(device, graph, memory, cut="star", seed_passes=2):
    """Restructure a couple of passes, then attempt one division."""
    disk = DiskGraph.from_digraph(device, graph)
    allocator = VirtualNodeAllocator(graph.node_count)
    tree = initial_star_tree(disk, allocator)
    free = memory - 3 * graph.node_count
    for _ in range(seed_passes):
        outcome = restructure(disk.edge_file, tree, free)
        tree = outcome.tree
        if not outcome.update:
            break
    if cut == "star":
        cut_nodes, expanded = star_cut(tree)
    else:
        cut_nodes, expanded = build_cut_tree(tree, free)
    division = divide_with_cut(disk.edge_file, tree, cut_nodes, expanded, allocator)
    return disk, tree, division


@pytest.fixture(params=["star", "td"])
def cut_kind(request):
    return request.param


class TestValidityProperties:
    def make(self, device, cut_kind, seed=11):
        graph = power_law_graph(400, 4, seed=seed)
        disk, tree, division = prepared_division(
            device, graph, 3 * 400 + 400, cut=cut_kind
        )
        assert division is not None, "expected a valid division on this input"
        return graph, disk, tree, division

    def test_node_coverage(self, device, cut_kind):
        """V(G_0) ∪ V(G_1) ∪ ... = V(G)   (plus virtual helpers)."""
        graph, disk, tree, division = self.make(device, cut_kind)
        covered = {n for n in division.t0.nodes if not division.t0.is_virtual(n)}
        for part in division.parts:
            covered.update(part.real_nodes)
        assert covered == set(range(graph.node_count))

    def test_contractible(self, device, cut_kind):
        """Every part is strictly smaller than the whole graph."""
        graph, disk, tree, division = self.make(device, cut_kind)
        for part in division.parts:
            assert len(part.real_nodes) < graph.node_count

    def test_independence_edge_disjoint(self, device, cut_kind):
        """Theorem 5.1: part edge sets are pairwise disjoint (by routing:
        every edge lands in at most one part file)."""
        graph, disk, tree, division = self.make(device, cut_kind)
        seen_budget = {}
        total_routed = 0
        original = list(disk.scan())
        multiset = {}
        for e in original:
            multiset[e] = multiset.get(e, 0) + 1
        for part in division.parts:
            for edge in part.edge_file.scan():
                assert multiset.get(edge, 0) > 0, f"edge {edge} over-assigned"
                multiset[edge] -= 1
                total_routed += 1
        assert total_routed <= len(original)

    def test_parts_contain_exactly_internal_edges(self, device, cut_kind):
        graph, disk, tree, division = self.make(device, cut_kind)
        for part in division.parts:
            members = set(part.real_nodes)
            part_edges = list(part.edge_file.scan())
            expected = [
                (u, v) for u, v in disk.scan() if u in members and v in members
            ]
            assert part_edges == expected

    def test_parts_share_only_roots(self, device, cut_kind):
        """Root-based division: V(G_i) ∩ V(G_j) = ∅ for i, j >= 1."""
        graph, disk, tree, division = self.make(device, cut_kind)
        seen = set()
        for part in division.parts:
            members = set(part.real_nodes)
            assert not (members & seen)
            seen.update(members)

    def test_sigma_is_dag(self, device, cut_kind):
        """Theorem 6.1: the division is DFS-preservable iff Σ is a DAG."""
        graph, disk, tree, division = self.make(device, cut_kind)
        assert division.sigma.is_dag()

    def test_sigma_nodes_equal_t0(self, device, cut_kind):
        graph, disk, tree, division = self.make(device, cut_kind)
        assert division.sigma.nodes == set(division.t0.nodes)

    def test_part_roots_are_t0_leaves(self, device, cut_kind):
        graph, disk, tree, division = self.make(device, cut_kind)
        leaves = {
            n for n in division.t0.preorder() if not division.t0.child_list(n)
        }
        assert {part.root for part in division.parts} == leaves

    def test_part_trees_are_subtrees_of_t(self, device, cut_kind):
        graph, disk, tree, division = self.make(device, cut_kind)
        for part in division.parts:
            for node in part.tree.preorder():
                if node == part.root:
                    continue
                assert part.tree.parent[node] == tree.parent[node]


class TestInvalidDivisions:
    def test_single_child_root_returns_none(self, device):
        # a pure path: after restructure, γ has one child -> no division
        edges = [(i, i + 1) for i in range(49)]
        graph_nodes = 50
        from repro.graph import Digraph

        graph = Digraph.from_edges(graph_nodes, edges)
        disk, tree, division = prepared_division(
            device, graph, 3 * graph_nodes + 10, cut="star", seed_passes=1
        )
        assert division is None

    def test_empty_cut_returns_none(self, device):
        graph = random_graph(30, 3, seed=5)
        disk = DiskGraph.from_digraph(device, graph)
        allocator = VirtualNodeAllocator(30)
        tree = initial_star_tree(disk, allocator)
        assert divide_with_cut(disk.edge_file, tree, {tree.root}, set(), allocator) is None


class TestWideCut:
    """Regression: the T_0 build must stay linear on very wide cuts.

    A previous implementation drained the BFS queue with ``list.pop(0)``,
    which is quadratic in the cut width; a thousands-wide sibling group
    (disconnected micro-clusters) is exactly the shape that triggered it.
    """

    CLUSTERS = 1500
    SIZE = 3  # directed triangles: the smallest nontrivial SCC parts

    def triangle_clusters(self):
        from repro.graph import Digraph

        graph = Digraph(self.CLUSTERS * self.SIZE)
        for cluster in range(self.CLUSTERS):
            base = cluster * self.SIZE
            for i in range(self.SIZE):
                graph.add_edge(base + i, base + (i + 1) % self.SIZE)
        return graph

    def test_wide_flat_division_covers_every_cluster(self, device):
        graph = self.triangle_clusters()
        node_count = graph.node_count
        disk, tree, division = prepared_division(
            device, graph, 3 * node_count + 4000, cut="star", seed_passes=1
        )
        assert division is not None
        # one part per cluster: the cut is CLUSTERS siblings wide, and the
        # top-down T_0 build must enqueue every one of them exactly once
        assert division.part_count == self.CLUSTERS
        covered = sorted(
            node for part in division.parts for node in part.real_nodes
        )
        assert covered == list(range(node_count))
        for part in division.parts:
            assert part.edge_file.edge_count == self.SIZE


def tree_state(tree):
    """Everything a division attempt may change in ``tree``, as values."""
    return (
        tree.root,
        dict(tree.parent),
        {node: list(children) for node, children in tree.child_lists.items()},
        set(tree.virtual),
    )


def first_real(tree):
    return next(
        (node for node in tree.preorder() if not tree.is_virtual(node)), None
    )


def attempt(device, case):
    """One ``divide_with_cut`` call on a ``division_cases`` example.

    Returns the tree, the allocator, the tree's state, the allocator's next
    id and the device's file names from before the call, and the division.
    """
    make = power_law_graph if case["power_law"] else random_graph
    graph = make(case["nodes"], case["degree"], seed=case["seed"])
    tree, edge_file = restructured(device, graph, case["passes"], case["slack"])
    if case["sparse"]:
        tree, edge_file = sparse_copy(device, tree, edge_file)
    if case["cut_budget"] is None:
        cut_nodes, expanded = star_cut(tree)
    else:
        cut_nodes, expanded = build_cut_tree(tree, case["cut_budget"])
    allocator = VirtualNodeAllocator(max(tree.parent) + 1)
    before = (
        tree_state(tree),
        allocator.next_id,
        sorted(os.listdir(device.directory)),
    )
    division = divide_with_cut(edge_file, tree, cut_nodes, expanded, allocator)
    return tree, allocator, before, division


ATTEMPTS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Rejected only after Σ's SCCs are found: the initial star's 20 children
#: form one SCC, so contracting it would leave a single part.
ONE_SCC_CASE = {
    "power_law": False, "nodes": 20, "degree": 5, "seed": 1, "passes": 0,
    "slack": 200, "cut_budget": None, "kernel": "python", "sparse": False,
    "block": 32,
}


class TestDivisionAttempts:
    """Division is all or nothing, and its start-head check agrees with the
    merge, on the Σ cases of ``test_cut_labels``."""

    @ATTEMPTS
    @given(division_cases())
    @example(ONE_SCC_CASE)
    def test_a_rejected_division_changes_nothing(self, case):
        with BlockDevice(block_elements=case["block"], kernel=case["kernel"]) as device:
            tree, allocator, before, division = attempt(device, case)
            if division is not None:
                return
            after = (
                tree_state(tree),
                allocator.next_id,
                sorted(os.listdir(device.directory)),
            )
            assert after == before

    @ATTEMPTS
    @given(division_cases())
    def test_an_accepted_division_is_well_formed(self, case):
        with BlockDevice(block_elements=case["block"], kernel=case["kernel"]) as device:
            _, _, _, division = attempt(device, case)
            if division is None:
                return
            assert division.part_count >= 2
            t0 = division.t0
            leaves = [node for node in t0.preorder() if not t0.child_list(node)]
            assert leaves == [part.root for part in division.parts]
            assert [part.index for part in division.parts] == list(
                range(1, division.part_count + 1)
            )

    @ATTEMPTS
    @given(division_cases())
    def test_the_start_head_check_reads_the_merge(self, case):
        with BlockDevice(block_elements=case["block"], kernel=case["kernel"]) as device:
            _, _, _, division = attempt(device, case)
            if division is None:
                return
            merged = merge_division(division, [p.tree for p in division.parts])
            assert _division_first_real(division) == first_real(merged)
