"""Tests for the in-memory algorithms (DFS, Tarjan SCC, topological sort)."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Preorder,
    SpanningTree,
    dfs_preferring_tree,
    tarjan_scc,
    topological_sort,
    verify_dfs_tree_inmemory,
)
from repro.errors import InvalidGraphError, NotADAGError
from repro.graph import Digraph, power_law_graph, random_graph
from repro.storage import BlockDevice

from ..conftest import reference_dfs_preorder


def star_and_adjacency(graph: Digraph):
    tree = SpanningTree.initial_star(range(graph.node_count), graph.node_count)
    extra = {u: list(graph.out_neighbors(u)) for u in range(graph.node_count)}
    return tree, extra


class PagedStack:
    """A stack of ``page``-element pages, two kept hot, counting page I/O."""

    def __init__(self, page: int) -> None:
        self.page = page
        self.hot = [[]]
        self.spilled = []
        self.reads = self.writes = 0

    def push(self, value: int) -> None:
        if len(self.hot[-1]) == self.page:
            self.hot.append([])
            if len(self.hot) > 2:
                self.spilled.append(self.hot.pop(0))
                self.writes += 1
        self.hot[-1].append(value)

    def pop(self) -> int:
        if not self.hot[-1]:
            self.hot.pop()
            if not self.hot:
                self.hot.append(self.spilled.pop())
                self.reads += 1
        return self.hot[-1].pop()


def replay_stack_trace(tree: SpanningTree, stack) -> None:
    """Drive ``stack`` through the pushes and pops that built ``tree``.

    ``dfs_preferring_tree`` pushes the root; visiting a node ``v`` pops
    ``v``, then for each child ``c`` in order pushes ``v``, pushes ``c``,
    visits ``c`` and pops ``v`` again.
    """
    children = tree.child_lists
    stack.push(tree.root)
    assert stack.pop() == tree.root
    frames = [(tree.root, iter(children.get(tree.root, ())))]
    while frames:
        node, pending = frames[-1]
        child = next(pending, None)
        if child is None:
            frames.pop()
            if frames:
                assert stack.pop() == frames[-1][0]
            continue
        stack.push(node)
        stack.push(child)
        assert stack.pop() == child
        frames.append((child, iter(children.get(child, ()))))


#: Hypothesis strategies for one DFS: a random or power-law graph, the
#: stack device's page size, and whether a first batch builds the tree.
DFS_CASES = dict(
    kind=st.sampled_from(["random", "power-law"]),
    node_count=st.integers(min_value=2, max_value=150),
    seed=st.integers(min_value=0, max_value=999),
    block_elements=st.sampled_from([1, 2, 3, 4, 8, 16]),
    two_batches=st.booleans(),
)


def dfs_case(kind, node_count, seed, two_batches):
    """The tree and batch a :data:`DFS_CASES` draw describes."""
    make = random_graph if kind == "random" else power_law_graph
    graph = make(node_count, 4, seed=seed)
    tree, extra = star_and_adjacency(graph)
    if two_batches:
        # A second DFS starts from a non-star tree, whose children
        # are visited before the batch's edges.
        first = {u: targets[::2] for u, targets in extra.items()}
        tree, _ = dfs_preferring_tree(tree, first)
        extra = {u: targets[1::2] for u, targets in extra.items()}
    return tree, extra


class TestStackSpillAccounting:
    """The inline spill count equals a paged stack replaying the DFS."""

    @settings(max_examples=60)
    @given(**DFS_CASES)
    def test_spill_io_matches_paged_stack_replay(
        self, kind, node_count, seed, block_elements, two_batches
    ):
        tree, extra = dfs_case(kind, node_count, seed, two_batches)
        with BlockDevice(block_elements=block_elements) as device:
            result, _ = dfs_preferring_tree(tree, extra, stack_device=device)
            charged = (device.stats.reads, device.stats.writes)
        stack = PagedStack(block_elements)
        replay_stack_trace(result, stack)
        assert charged == (stack.reads, stack.writes)


class TestReturnedPreorder:
    """The DFS's visit order is the new tree's own preorder."""

    @settings(max_examples=60)
    @given(**DFS_CASES, with_device=st.booleans())
    def test_preorder_is_the_walked_one(
        self, kind, node_count, seed, block_elements, two_batches, with_device
    ):
        tree, extra = dfs_case(kind, node_count, seed, two_batches)
        with BlockDevice(block_elements=block_elements) as device:
            result, preorder = dfs_preferring_tree(
                tree, extra, stack_device=device if with_device else None
            )
        assert preorder == Preorder.of(result)
        assert preorder.nodes == list(result.preorder())


class TestDFSPreferringTree:
    def test_matches_reference_dfs_from_star(self):
        """From the initial star, the DFS equals a plain priority DFS."""
        graph = random_graph(60, 3, seed=1)
        tree, extra = star_and_adjacency(graph)
        result, _ = dfs_preferring_tree(tree, extra)
        preorder = [n for n in result.preorder() if n != graph.node_count]
        assert preorder == reference_dfs_preorder(graph)

    def test_result_has_no_forward_cross_edges(self):
        graph = random_graph(80, 4, seed=2)
        tree, extra = star_and_adjacency(graph)
        result, _ = dfs_preferring_tree(tree, extra)
        assert verify_dfs_tree_inmemory(graph, result).ok

    def test_no_extra_edges_reproduces_tree(self):
        """With an empty batch, the DFS must reproduce the tree exactly."""
        graph = random_graph(40, 3, seed=3)
        tree, extra = star_and_adjacency(graph)
        first, _ = dfs_preferring_tree(tree, extra)
        second, _ = dfs_preferring_tree(first, {})
        assert list(second.preorder()) == list(first.preorder())
        assert second.parent == first.parent

    def test_virtual_flags_preserved(self):
        graph = random_graph(20, 2, seed=4)
        tree, extra = star_and_adjacency(graph)
        result, _ = dfs_preferring_tree(tree, extra)
        assert result.is_virtual(graph.node_count)
        assert result.root == graph.node_count

    def test_rootless_tree_rejected(self):
        tree = SpanningTree()
        tree.add_node(0)
        with pytest.raises(InvalidGraphError):
            dfs_preferring_tree(tree, {})

    def test_target_outside_the_tree_rejected(self):
        tree = SpanningTree.initial_star(range(3), 3)
        with pytest.raises(InvalidGraphError, match="outside the tree"):
            dfs_preferring_tree(tree, {0: [7]})

    def test_external_stack_variant_gives_same_tree(self, device):
        graph = random_graph(100, 4, seed=5)
        tree, extra = star_and_adjacency(graph)
        plain, _ = dfs_preferring_tree(tree, extra)
        spilled, _ = dfs_preferring_tree(tree, extra, stack_device=device)
        assert list(spilled.preorder()) == list(plain.preorder())
        stack = PagedStack(device.block_elements)
        replay_stack_trace(spilled, stack)
        assert stack.writes > 0
        assert (device.stats.reads, device.stats.writes) == (
            stack.reads, stack.writes
        )

    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=99))
    def test_property_valid_dfs_tree(self, node_count, seed):
        graph = random_graph(node_count, 3, seed=seed)
        tree, extra = star_and_adjacency(graph)
        result, _ = dfs_preferring_tree(tree, extra)
        assert verify_dfs_tree_inmemory(graph, result).ok
        preorder = [n for n in result.preorder() if n != graph.node_count]
        assert sorted(preorder) == list(range(node_count))


class TestTarjanSCC:
    def test_simple_components(self):
        adjacency = {0: [1], 1: [2], 2: [0, 3], 3: [4], 4: [3], 5: []}
        components = tarjan_scc(range(6), adjacency)
        assert sorted(sorted(c) for c in components) == [[0, 1, 2], [3, 4], [5]]

    def test_reverse_topological_emission(self):
        """Tarjan emits SCCs in reverse topological order of the condensation."""
        adjacency = {0: [1], 1: [2], 2: []}
        components = tarjan_scc([0, 1, 2], adjacency)
        assert components == [[2], [1], [0]]

    def test_self_loop_is_singleton(self):
        components = tarjan_scc([0], {0: [0]})
        assert components == [[0]]

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=99))
    def test_matches_networkx(self, node_count, seed):
        graph = random_graph(node_count, 2, seed=seed)
        adjacency = {u: graph.out_neighbors(u) for u in range(node_count)}
        mine = sorted(sorted(c) for c in tarjan_scc(range(node_count), adjacency))
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(node_count))
        nx_graph.add_edges_from(graph.edges())
        theirs = sorted(sorted(c) for c in nx.strongly_connected_components(nx_graph))
        assert mine == theirs


class TestTopologicalSort:
    def test_respects_edges(self):
        order = topological_sort(range(4), {0: [1, 2], 1: [3], 2: [3]})
        position = {node: i for i, node in enumerate(order)}
        assert position[0] < position[1] < position[3]
        assert position[0] < position[2] < position[3]

    def test_deterministic_smallest_first(self):
        order = topological_sort(range(4), {})
        assert order == [0, 1, 2, 3]

    def test_cycle_raises(self):
        with pytest.raises(NotADAGError):
            topological_sort([0, 1], {0: [1], 1: [0]})

    def test_self_loop_raises(self):
        with pytest.raises(NotADAGError):
            topological_sort([0], {0: [0]})

    def test_unknown_target_rejected(self):
        with pytest.raises(InvalidGraphError):
            topological_sort([0], {0: [7]})

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=99))
    def test_property_valid_linearization(self, node_count, seed):
        rng = random.Random(seed)
        adjacency = {
            u: sorted({rng.randrange(u + 1, node_count) for _ in range(2)})
            for u in range(node_count - 1)
        }
        adjacency[node_count - 1] = []
        order = topological_sort(range(node_count), adjacency)
        position = {node: i for i, node in enumerate(order)}
        for u, targets in adjacency.items():
            for v in targets:
                assert position[u] < position[v]
