"""Shared fixtures and validation helpers for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings as hypothesis_settings

from repro import BlockDevice, DiskGraph, semi_external_dfs
from repro.core import check_spanning_tree, verify_dfs_tree
from repro.core.tree import SpanningTree
from repro.graph.digraph import Digraph
from repro.serve import seal_result

# Hypothesis profiles.  CI runs with HYPOTHESIS_PROFILE=ci: no deadline
# (shared runners have noisy clocks) and print_blob, so a failing example
# is printed as a `@reproduce_failure` blob that replays the exact case
# locally.  These are *defaults* — per-test `settings(...)` decorators
# instantiated after this module loads inherit whatever they leave unset.
hypothesis_settings.register_profile("ci", deadline=None, print_blob=True)
hypothesis_settings.register_profile("dev", deadline=None)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def device():
    """A small-block device (so block-level behaviour shows up at test sizes)."""
    with BlockDevice(block_elements=32) as dev:
        yield dev


@pytest.fixture
def device_factory():
    """Create devices with custom block sizes; all closed on teardown.

    Extra keyword arguments are forwarded to :class:`BlockDevice` — tests
    that assert *exact* fixed32 block counts pin ``block_codec="fixed32"``
    so they stay meaningful under the ``REPRO_BLOCK_CODEC`` CI matrix leg.
    """
    created = []

    def make(block_elements: int = 32, **kwargs) -> BlockDevice:
        dev = BlockDevice(block_elements=block_elements, **kwargs)
        created.append(dev)
        return dev

    yield make
    for dev in created:
        dev.close()


def disk_graph_of(device: BlockDevice, graph: Digraph) -> DiskGraph:
    """Materialize an in-memory digraph on the given device."""
    return DiskGraph.from_digraph(device, graph)


def tree_edges_are_real(tree: SpanningTree, graph: Digraph) -> bool:
    """Every tree edge whose parent is a real node must be a graph edge.

    This is the invariant that makes the result a *genuine* DFS forest
    (virtual nodes stand for the free restarts of the virtual root).
    """
    edge_set = set(graph.edges())
    for parent, child in tree.tree_edges():
        if not tree.is_virtual(parent) and (parent, child) not in edge_set:
            return False
    return True


def assert_valid_dfs_result(result, disk_graph: DiskGraph, graph: Digraph) -> None:
    """Full validity check for a :class:`DFSResult`.

    Asserts: the tree spans exactly the real nodes, the order is a
    permutation of ``V``, no forward-cross edges exist on a full disk scan,
    and every real-parent tree edge is a real graph edge.
    """
    node_count = graph.node_count
    structure = check_spanning_tree(result.tree, range(node_count))
    assert structure.ok, structure.problems
    assert sorted(result.order) == list(range(node_count))
    report = verify_dfs_tree(disk_graph, result.tree)
    assert report.ok, (
        f"{report.forward_cross_count} forward-cross edges remain, "
        f"first: {report.first_offender}"
    )
    assert tree_edges_are_real(result.tree, graph), "tree contains a fake edge"


def reference_dfs_preorder(graph: Digraph, priority=None) -> list:
    """A straightforward recursive-style reference DFS (iterative impl).

    Visits γ's children in ``priority`` order (node id order by default)
    and each node's out-neighbors in adjacency order.  Used as an oracle
    for the in-memory DFS.
    """
    order = []
    visited = [False] * graph.node_count
    roots = list(priority) if priority is not None else range(graph.node_count)
    for root in roots:
        if visited[root]:
            continue
        visited[root] = True
        order.append(root)
        frames = [(root, iter(graph.out_neighbors(root)))]
        while frames:
            node, neighbors = frames[-1]
            advanced = False
            for target in neighbors:
                if not visited[target]:
                    visited[target] = True
                    order.append(target)
                    frames.append((target, iter(graph.out_neighbors(target))))
                    advanced = True
                    break
            if not advanced:
                frames.pop()
    return order


def dfs_back_edge_scan(disk_graph: DiskGraph, memory: int):
    """Cycle and toposort answers of one DFS plus one back-edge scan.

    Written out independently of the artifact seal: runs the default
    semi-external DFS, then scans the edges in file order for the first
    self-loop or back edge ``(u, v)`` (``v`` an ancestor of ``u``, found
    by walking parent pointers up from ``u``).

    Returns:
        ``(witness, finish_order)``: the first cycle ``[v, ..., u]``
        (``[u]`` for a self-loop) or ``None`` on a DAG, and the reverse
        finishing order of the DFS forest's real nodes.
    """
    tree = semi_external_dfs(disk_graph, memory).tree

    def tree_path(u, v):
        """The tree path ``v -> ... -> u``, or None if ``v`` is not an
        ancestor of ``u`` (a node is its own ancestor)."""
        path = [u]
        while path[-1] != v:
            parent = tree.parent.get(path[-1])
            if parent is None:
                return None
            path.append(parent)
        return path[::-1]

    witness = None
    for u, v in disk_graph.scan():
        witness = tree_path(u, v)
        if witness is not None:
            break
    finish = [node for node in tree.postorder() if not tree.is_virtual(node)]
    return witness, finish[::-1]


def seal_dfs(disk_graph: DiskGraph, memory: int, sources=()):
    """One default DFS of ``disk_graph``, sealed into a query artifact
    (with exact reachability bitsets for ``sources``)."""
    result = semi_external_dfs(disk_graph, memory)
    return seal_result(disk_graph, result, memory=memory, sources=sources)
