"""Tests for the DivideConquerDFS framework (Algorithm 2)."""

import os

import pytest

from repro import DiskGraph
from repro.algorithms import divide_conquer, divide_star_dfs, divide_td_dfs
from repro.algorithms.base import RunContext
from repro.errors import ConvergenceError, MemoryBudgetExceeded
from repro.graph import (
    Digraph,
    directed_cycle,
    disconnected_clusters,
    grid_graph,
    power_law_graph,
    random_dag,
    random_graph,
)

from ..conftest import assert_valid_dfs_result

SHAPES = [
    ("random", lambda: random_graph(150, 4, seed=1)),
    ("powerlaw", lambda: power_law_graph(200, 4, seed=2)),
    ("dag", lambda: random_dag(120, 500, seed=3)),
    ("cycle", lambda: directed_cycle(80)),
    ("grid", lambda: grid_graph(10, 10)),
    ("disconnected", lambda: disconnected_clusters([40, 50, 20], seed=4)),
    ("empty-edges", lambda: Digraph(30)),
    ("single-node", lambda: Digraph(1)),
]


@pytest.mark.parametrize("name,factory", SHAPES)
@pytest.mark.parametrize("algorithm", [divide_star_dfs, divide_td_dfs])
def test_valid_dfs_tree_on_shapes(device, name, factory, algorithm):
    graph = factory()
    disk = DiskGraph.from_digraph(device, graph)
    memory = 3 * max(graph.node_count, 1) + max(64, graph.edge_count // 4)
    result = algorithm(disk, memory)
    assert_valid_dfs_result(result, disk, graph)


class TestBaseCase:
    def test_graph_fitting_in_memory_solved_directly(self, device):
        graph = random_graph(50, 3, seed=5)
        disk = DiskGraph.from_digraph(device, graph)
        result = divide_td_dfs(disk, memory=disk.size + 10)
        assert result.passes == 0
        assert result.divisions == 0
        assert result.details.get("inmemory_solves") == 1
        assert_valid_dfs_result(result, disk, graph)

    def test_single_scan_io_when_in_memory(self, device_factory):
        device = device_factory(16)
        graph = random_graph(100, 4, seed=6)
        disk = DiskGraph.from_digraph(device, graph)
        before = device.stats.snapshot()
        divide_td_dfs(disk, memory=disk.size + 10)
        delta = device.stats.snapshot() - before
        assert delta.reads == disk.edge_file.block_count
        assert delta.writes == 0


class TestRecursion:
    def test_divisions_happen_under_pressure(self, device):
        graph = power_law_graph(500, 5, seed=7)
        disk = DiskGraph.from_digraph(device, graph)
        result = divide_td_dfs(disk, memory=3 * 500 + 300)
        assert result.divisions >= 1
        assert result.max_depth >= 1
        assert result.details["parts_created"] >= 2

    def test_part_files_cleaned_up(self, device):
        graph = power_law_graph(400, 5, seed=8)
        disk = DiskGraph.from_digraph(device, graph)
        files_before = set(os.listdir(device.directory))
        result = divide_td_dfs(disk, memory=3 * 400 + 300)
        assert result.divisions >= 1
        files_after = set(os.listdir(device.directory))
        # only the original graph file remains; all part files deleted
        assert files_after == files_before

    def test_td_beats_star_on_powerlaw_io(self, device_factory):
        """The paper's headline ranking on a skewed graph."""
        graph = power_law_graph(600, 5, seed=9)
        dev_star, dev_td = device_factory(64), device_factory(64)
        star = divide_star_dfs(
            DiskGraph.from_digraph(dev_star, graph), 3 * 600 + 400
        )
        td = divide_td_dfs(DiskGraph.from_digraph(dev_td, graph), 3 * 600 + 400)
        assert td.io.total <= star.io.total

    def test_memory_below_3n_rejected(self, device):
        graph = random_graph(20, 2, seed=10)
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(MemoryBudgetExceeded):
            divide_td_dfs(disk, 3 * 20 - 1)

    def test_pass_cap_raises(self, device):
        graph = random_graph(200, 5, seed=11)
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(ConvergenceError):
            divide_td_dfs(disk, 3 * 200 + 120, max_passes=1)

    def test_start_node_first_in_order(self, device):
        graph = power_law_graph(300, 4, seed=12)
        disk = DiskGraph.from_digraph(device, graph)
        for algorithm in (divide_star_dfs, divide_td_dfs):
            result = algorithm(disk, 3 * 300 + 250, start=42)
            assert result.order[0] == 42


class TestDeadline:
    @pytest.mark.parametrize("algorithm", [divide_star_dfs, divide_td_dfs])
    def test_deadline_interrupts_the_base_case(self, device, algorithm):
        # the whole graph fits in memory, so the run never enters the
        # restructure loop: only the base case's own check can notice the
        # expired budget (a division can funnel hundreds of in-memory
        # solves through here, each unmetered without it)
        graph = random_graph(60, 3, seed=21)
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(ConvergenceError, match="deadline"):
            algorithm(disk, memory=disk.size + 10, deadline_seconds=0.0)

    def test_no_deadline_means_no_interruption(self, device):
        graph = random_graph(60, 3, seed=21)
        disk = DiskGraph.from_digraph(device, graph)
        result = divide_td_dfs(disk, memory=disk.size + 10)
        assert_valid_dfs_result(result, disk, graph)

    @pytest.mark.parametrize("algorithm", [divide_star_dfs, divide_td_dfs])
    def test_deadline_checked_at_least_once_per_batch(
        self, device_factory, monkeypatch, algorithm
    ):
        # one pass over the whole edge file takes many batches here, so a
        # run that checked the clock only between passes would overshoot
        # its deadline by a whole scan
        graph = random_graph(300, 6, seed=1)
        disk = DiskGraph.from_digraph(device_factory(64), graph)
        checks = []
        check_deadline = RunContext.check_deadline

        def counting(context):
            checks.append(None)
            check_deadline(context)

        monkeypatch.setattr(RunContext, "check_deadline", counting)
        result = algorithm(disk, 3 * 300 + graph.edge_count // 10)
        assert result.details["batches"] > result.passes
        assert len(checks) >= result.details["batches"]


def dense_clusters(cluster_count=4, cluster_size=300, degree=14):
    """Disconnected power-law clusters, each too dense for the budget.

    The top-level division splits off one part per cluster, and every
    part still exceeds ``M``, so the recursion keeps restructuring inside
    the parts — where a tight pass cap then trips *after* the part files
    have been materialized.
    """
    graph = Digraph(cluster_count * cluster_size)
    for cluster in range(cluster_count):
        base = cluster * cluster_size
        shape = power_law_graph(cluster_size, degree, seed=10 + cluster)
        for u, v in shape.edges():
            graph.add_edge(base + u, base + v)
    return graph


DENSE_MEMORY = 3 * 1200 + 150


class TestFailureCleanup:
    """A mid-recursion error must leave zero part artifacts behind."""

    def test_pass_cap_error_leaves_no_part_files(self, device_factory):
        device = device_factory(64)
        disk = DiskGraph.from_digraph(device, dense_clusters())
        files_before = set(os.listdir(device.directory))
        with pytest.raises(ConvergenceError, match="restructure passes"):
            divide_star_dfs(disk, DENSE_MEMORY, max_passes=2)
        assert set(os.listdir(device.directory)) == files_before

    def test_deadline_error_leaves_no_part_files(self, device_factory):
        device = device_factory(64)
        disk = DiskGraph.from_digraph(device, dense_clusters())
        files_before = set(os.listdir(device.directory))
        with pytest.raises(ConvergenceError, match="deadline"):
            divide_star_dfs(disk, DENSE_MEMORY, deadline_seconds=0.0)
        assert set(os.listdir(device.directory)) == files_before


def real_node_count(tree):
    return sum(1 for node in tree.nodes if not tree.is_virtual(node))


class TestMemoryRule:
    """Each level hands restructure and the cut strategy ``M - 3·r``, where
    ``r`` counts the real nodes of that level's spanning tree."""

    @pytest.mark.parametrize("algorithm", [divide_star_dfs, divide_td_dfs])
    def test_every_level_gets_the_memory_left_next_to_its_tree(
        self, device, monkeypatch, algorithm
    ):
        graph = power_law_graph(500, 5, seed=7)
        memory = 3 * 500 + 300
        calls = []
        restructure = divide_conquer.restructure
        build_cut_tree = divide_conquer.build_cut_tree

        def recording_restructure(edge_file, tree, capacity, **kwargs):
            calls.append(("restructure", capacity, real_node_count(tree)))
            return restructure(edge_file, tree, capacity, **kwargs)

        def recording_build_cut_tree(tree, free):
            calls.append(("cut", free, real_node_count(tree)))
            return build_cut_tree(tree, free)

        monkeypatch.setattr(divide_conquer, "restructure", recording_restructure)
        monkeypatch.setattr(
            divide_conquer, "build_cut_tree", recording_build_cut_tree
        )
        result = algorithm(DiskGraph.from_digraph(device, graph), memory)

        assert result.divisions >= 1
        # the parts' levels restructure too, over smaller trees
        assert len({real for _, _, real in calls}) >= 2
        for index, (kind, free, real) in enumerate(calls):
            assert free == memory - 3 * real
            if kind == "cut":
                # the cut follows its own level's restructure pass
                assert calls[index - 1][:2] == ("restructure", free)
        cuts = sum(1 for kind, _, _ in calls if kind == "cut")
        if algorithm is divide_td_dfs:
            assert cuts >= result.divisions
        else:
            assert cuts == 0


class TestDeterminism:
    def test_same_input_same_output(self, device_factory):
        graph = power_law_graph(300, 4, seed=13)
        first = divide_td_dfs(
            DiskGraph.from_digraph(device_factory(32), graph), 3 * 300 + 200
        )
        second = divide_td_dfs(
            DiskGraph.from_digraph(device_factory(32), graph), 3 * 300 + 200
        )
        assert first.order == second.order
        assert first.io == second.io
        assert first.passes == second.passes
