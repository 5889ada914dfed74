"""Property-based invariants of semi-external BFS.

Levels obey the BFS triangle property, unreached ⇔ ``None``, the parent
of every reached non-start node sits one level up, and the whole result
— levels, parents, order, tree preorder, pass count, and I/O totals —
is bit-identical across kernel backends and block codecs, because each
relaxation pass is a pure function of the levels entering it.
"""

from hypothesis import HealthCheck, given, settings

from repro import BlockDevice, DiskGraph, Tracer, RunOptions, semi_external_bfs
from repro.core import check_spanning_tree
from repro.kernels import available_backends
from repro.obs import phase_totals

from ..test_differential import digraphs

KERNELS = available_backends()

property_settings = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def run_bfs(graph, **kwargs):
    with BlockDevice(block_elements=16, **kwargs) as device:
        disk = DiskGraph.from_digraph(device, graph)
        return semi_external_bfs(disk, 3 * graph.node_count + 50)


def outcome_tuple(result):
    return (
        result.levels,
        result.order,
        result.tree.parent,
        list(result.tree.preorder()),
        result.passes,
        (result.io.reads, result.io.writes),
    )


@property_settings
@given(digraphs())
def test_level_invariants(graph):
    """parent level = child level − 1; unreached ⇔ level is None."""
    result = run_bfs(graph)
    edge_set = set(graph.edges())
    gamma = result.tree.root
    for v in range(graph.node_count):
        level = result.levels[v]
        parent = result.tree.parent[v]
        if level is None:
            assert parent == gamma  # unreached ⇒ a free restart under γ
        elif level == 0:
            assert v == 0 and parent == gamma
        else:
            assert (parent, v) in edge_set
            assert result.levels[parent] == level - 1
    # no edge may skip a level downward: level[v] <= level[u] + 1
    for u, v in graph.edges():
        lu, lv = result.levels[u], result.levels[v]
        if lu is not None:
            assert lv is not None and lv <= lu + 1


@property_settings
@given(digraphs())
def test_tree_spans_all_nodes_and_order_is_level_sorted(graph):
    result = run_bfs(graph)
    structure = check_spanning_tree(result.tree, range(graph.node_count))
    assert structure.ok, structure.problems
    # the order lists reached nodes by (level, id), then unreached by id
    reached = [v for v in result.order if result.levels[v] is not None]
    keys = [(result.levels[v], v) for v in reached]
    assert keys == sorted(keys)
    unreached = [v for v in result.order if result.levels[v] is None]
    assert unreached == sorted(unreached)
    assert result.order == reached + unreached


@property_settings
@given(digraphs())
def test_pass_count_is_depth_plus_one(graph):
    """Jacobi relaxation settles one level per pass, then proves the
    fixpoint: exactly depth(start) + 1 passes, never more."""
    result = run_bfs(graph)
    assert result.passes == result.depth + 1


@property_settings
@given(digraphs())
def test_run_is_deterministic(graph):
    assert outcome_tuple(run_bfs(graph)) == outcome_tuple(run_bfs(graph))


@property_settings
@given(digraphs())
def test_kernel_backends_bit_identical(graph):
    outcomes = [
        outcome_tuple(run_bfs(graph, kernel=backend)) for backend in KERNELS
    ]
    for other in outcomes[1:]:
        assert other == outcomes[0]


@property_settings
@given(digraphs())
def test_block_codecs_bit_identical(graph):
    """fixed32 vs delta-varint: blocks regroup, the result must not."""
    outcomes = [
        outcome_tuple(run_bfs(graph, block_codec=codec))
        for codec in ("fixed32", "delta-varint")
    ]
    # codecs change block counts, hence I/O; compare everything else
    assert outcomes[0][:5] == outcomes[1][:5]


def test_block_size_does_not_change_the_result():
    """Block boundaries move proposals between kernel calls; the frozen
    snapshot keeps the merged outcome identical."""
    from repro.graph import random_graph

    graph = random_graph(80, 4, seed=13)
    outcomes = []
    for block_elements in (4, 16, 64):
        with BlockDevice(block_elements=block_elements) as device:
            disk = DiskGraph.from_digraph(device, graph)
            result = semi_external_bfs(disk, 3 * 80 + 60)
            outcomes.append(outcome_tuple(result)[:5])
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_relax_and_checkpoint_spans_tile_the_io():
    """BFS's LEAF_PHASES spans partition the run's I/O exactly."""
    from repro.graph import random_graph

    graph = random_graph(60, 4, seed=7)
    with BlockDevice(block_elements=16) as device:
        disk = DiskGraph.from_digraph(device, graph)
        tracer = Tracer()
        from repro import semi_external_dfs

        result = semi_external_dfs(
            disk, 3 * 60 + 50, algorithm="bfs",
            options=RunOptions(tracer=tracer),
        )
        totals = phase_totals(result.events)
        assert set(totals) == {"relax"}
        assert totals["relax"].calls == result.passes
        # every read happens in relax passes, and the run writes nothing
        assert totals["relax"].io.reads == result.io.reads
        assert totals["relax"].io.writes == result.io.writes == 0


def test_memory_budget_and_options_surface():
    """BFS enforces M >= 3|V| and accepts exactly the base options."""
    import pytest

    from repro import MemoryBudgetExceeded, semi_external_dfs
    from repro.graph import random_graph

    graph = random_graph(30, 3, seed=4)
    with BlockDevice(block_elements=16) as device:
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(MemoryBudgetExceeded):
            semi_external_bfs(disk, 3 * 30 - 1)
        with pytest.raises(ValueError, match="'checkpoint_every'"):
            semi_external_dfs(
                disk, 3 * 30 + 50, algorithm="bfs",
                options=RunOptions(checkpoint_every=2),
            )
        result = semi_external_dfs(
            disk, 3 * 30 + 50, algorithm="bfs",
            options=RunOptions(max_passes=40, deadline_seconds=60.0),
        )
        assert result.levels[0] == 0


def test_pass_cap_raises_convergence_error():
    import pytest

    from repro.errors import ConvergenceError
    from repro.graph import Digraph

    chain = Digraph.from_edges(6, [(i, i + 1) for i in range(5)])
    with BlockDevice(block_elements=16) as device:
        disk = DiskGraph.from_digraph(device, chain)
        with pytest.raises(ConvergenceError, match="bfs"):
            semi_external_bfs(disk, 3 * 6 + 30, max_passes=2)
