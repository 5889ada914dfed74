"""Differential property suite: external algorithms vs the in-memory oracle.

The oracle (DESIGN.md §7, via :func:`repro.core.inmemory.dfs_preferring_tree`):
a permutation σ of ``V`` is a valid DFS total order of ``G`` **iff** the
σ-preferring DFS — start from a star tree whose γ-children appear in σ
order and visit each node's out-neighbors in σ-position order — reproduces
σ exactly.  This checks *order validity* directly, independent of the
forward-cross-free tree property that ``verify_dfs_tree`` checks, so the
two validations fail for different bug classes.

Every hypothesis digraph is pushed through all three external algorithms on
every available columnar kernel; each result must (a) pass the disk-scan
DFS-Tree check, (b) reproduce under the σ-preferring oracle, and (c) be
bit-for-bit independent of the kernel backend.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import BlockDevice, DiskGraph
from repro.algorithms import divide_td_dfs, edge_by_batch, edge_by_edge
from repro.core import verify_dfs_tree
from repro.core.inmemory import dfs_preferring_tree
from repro.core.tree import SpanningTree
from repro.graph import Digraph
from repro.kernels import available_backends

from .conftest import assert_valid_dfs_result

ALGORITHMS = [
    ("edge-by-edge", edge_by_edge),
    ("edge-by-batch", edge_by_batch),
    ("divide-td", divide_td_dfs),
]

KERNELS = available_backends()

#: On fixed32 blocks of 16 edges, edge-by-batch fills a batch on the last
#: counted edge of a block that goes on with free edges: every kernel must
#: leave those for the next batch, which sees the rebuilt tree.
BATCH_FILLS_MID_BLOCK = Digraph.from_edges(23, [
    (0, 1), (0, 16), (0, 16), (0, 16), (0, 3), (0, 0), (0, 17), (0, 3),
    (0, 5), (0, 3), (0, 0), (0, 14), (0, 2), (0, 2), (0, 20), (0, 12),
    (0, 2), (0, 2), (0, 2), (0, 2), (0, 2), (0, 2), (0, 2), (0, 0), (0, 2),
    (0, 15), (0, 0), (0, 2), (0, 2), (1, 0), (1, 1), (1, 0), (1, 1), (1, 0),
    (1, 0), (1, 3), (1, 0), (1, 0), (1, 0), (1, 19), (1, 0), (1, 0), (2, 7),
    (3, 18), (3, 18), (3, 3), (3, 3), (5, 2), (5, 13), (7, 7), (8, 11),
    (8, 11), (9, 15), (9, 20), (9, 22), (10, 0), (10, 0), (11, 16),
    (11, 17), (11, 0), (11, 0), (11, 7), (12, 0), (12, 13), (12, 16),
    (13, 0), (13, 8), (14, 0), (14, 5), (15, 20), (15, 8), (15, 19),
    (16, 0), (17, 10), (17, 14), (18, 9), (18, 10), (19, 0), (19, 12),
    (19, 2), (20, 19),
])


def is_dfs_order(graph: Digraph, order) -> bool:
    """The σ-preferring oracle: does the order reproduce itself?"""
    n = graph.node_count
    if sorted(order) != list(range(n)):
        return False
    position = {node: index for index, node in enumerate(order)}
    star = SpanningTree.initial_star(range(n), virtual_root=n, order=order)
    adjacency = {
        u: sorted(set(graph.out_neighbors(u)) - {u}, key=position.__getitem__)
        for u in range(n)
    }
    replay, _ = dfs_preferring_tree(star, adjacency)
    reproduced = [v for v in replay.preorder() if not replay.is_virtual(v)]
    return reproduced == list(order)


@st.composite
def digraphs(draw):
    node_count = draw(st.integers(min_value=1, max_value=30))
    edge_count = draw(st.integers(min_value=0, max_value=4 * node_count))
    node = st.integers(min_value=0, max_value=node_count - 1)
    edges = draw(
        st.lists(st.tuples(node, node), min_size=edge_count, max_size=edge_count)
    )
    return Digraph.from_edges(node_count, edges)


differential_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def test_oracle_rejects_non_dfs_orders():
    """Sanity: the oracle is not a rubber stamp."""
    path = Digraph.from_edges(3, [(0, 1), (1, 2)])
    assert is_dfs_order(path, [0, 1, 2])
    assert not is_dfs_order(path, [0, 2, 1])  # 1 must be taken before 2
    assert not is_dfs_order(path, [0, 1])  # not a permutation
    diamond = Digraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert is_dfs_order(diamond, [0, 1, 3, 2])
    assert is_dfs_order(diamond, [0, 2, 3, 1])
    assert not is_dfs_order(diamond, [0, 1, 2, 3])  # 3 abandoned mid-descent


@differential_settings
@given(digraphs())
def test_external_orders_satisfy_inmemory_oracle(graph):
    """Every algorithm's DFS order replays under the σ-preferring oracle."""
    memory = 3 * graph.node_count + 50
    with BlockDevice(block_elements=16) as device:
        disk = DiskGraph.from_digraph(device, graph)
        for name, algorithm in ALGORITHMS:
            result = algorithm(disk, memory)
            report = verify_dfs_tree(disk, result.tree)
            assert report.ok, f"{name}: forward-cross {report.first_offender}"
            assert is_dfs_order(graph, result.order), (
                f"{name} produced a non-DFS order: {result.order}"
            )


@differential_settings
@given(digraphs())
@example(BATCH_FILLS_MID_BLOCK)
def test_kernel_backends_are_equivalent(graph):
    """python and numpy kernels must yield identical trees and orders."""
    memory = 3 * graph.node_count + 50
    for name, algorithm in ALGORITHMS:
        outcomes = []
        for backend in KERNELS:
            with BlockDevice(block_elements=16, kernel=backend) as device:
                disk = DiskGraph.from_digraph(device, graph)
                result = algorithm(disk, memory)
                assert_valid_dfs_result(result, disk, graph)
                outcomes.append(
                    (
                        result.order,
                        list(result.tree.preorder()),
                        result.tree.parent,
                        (result.io.reads, result.io.writes, result.passes),
                    )
                )
        first = outcomes[0]
        for other in outcomes[1:]:
            assert other == first, f"{name}: kernels disagree"


@differential_settings
@given(digraphs())
def test_block_codecs_are_equivalent(graph):
    """fixed32 and delta-varint must yield identical trees and orders.

    Compression changes how many edges share a block, and batch/division
    boundaries follow block boundaries — but the *edge sequence* each scan
    yields is identical, so the DFS tree and order must be bit-identical.
    """
    memory = 3 * graph.node_count + 50
    for name, algorithm in ALGORITHMS:
        outcomes = []
        for codec in ("fixed32", "delta-varint"):
            with BlockDevice(block_elements=16, block_codec=codec) as device:
                disk = DiskGraph.from_digraph(device, graph)
                result = algorithm(disk, memory)
                assert_valid_dfs_result(result, disk, graph)
                assert result.block_codec == codec
                outcomes.append(
                    (
                        result.order,
                        list(result.tree.preorder()),
                        result.tree.parent,
                    )
                )
        assert outcomes[0] == outcomes[1], f"{name}: codecs disagree"


@differential_settings
@given(digraphs())
def test_explicit_codec_matches_the_default_run(graph):
    """Pinning the ambient codec explicitly is a no-op against the default.

    The ambient codec is whatever ``REPRO_BLOCK_CODEC`` resolves to (fixed32
    outside the codec CI leg), so this holds under every matrix entry.
    """
    from repro.storage import resolve_block_codec

    ambient = resolve_block_codec(None)
    memory = 3 * graph.node_count + 50
    for name, algorithm in ALGORITHMS:
        with BlockDevice(block_elements=16) as device:
            disk = DiskGraph.from_digraph(device, graph)
            default = algorithm(disk, memory)
        with BlockDevice(block_elements=16, block_codec=ambient) as device:
            disk = DiskGraph.from_digraph(device, graph)
            pinned = algorithm(disk, memory)
        assert default.block_codec == pinned.block_codec == ambient
        assert pinned.order == default.order, name
        assert pinned.io == default.io, name
