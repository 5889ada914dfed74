"""Cross-layer integration tests: text file -> device -> DFS -> apps.

These walk realistic multi-step pipelines end to end, checking that the
layers compose (file interop, relabelling, checkpointing, applications)
— not just that each unit works in isolation.
"""

import os

import pytest

from repro import BlockDevice, DiskGraph, semi_external_dfs
from repro.apps import (
    biconnected_components,
    connectivity_report,
    sealed_topological_order,
    strongly_connected_components,
    weakly_connected_components,
)
from repro.core import verify_dfs_tree
from repro.graph import (
    load_edge_list,
    power_law_graph,
    random_dag,
    relabel_graph,
    sample_edges,
    write_edge_list,
)
from repro.serve import ArtifactStore

from .conftest import assert_valid_dfs_result


class TestFileToDFSPipeline:
    def test_text_roundtrip_then_dfs_all_algorithms(self, tmp_path, device):
        graph = power_law_graph(300, 4, seed=1)
        path = str(tmp_path / "g.txt")
        write_edge_list(path, graph.edges(), header="integration test")
        disk = load_edge_list(path, device, node_count=300)
        memory = 3 * 300 + disk.edge_count // 4
        for algorithm in ["edge-by-batch", "divide-star", "divide-td"]:
            result = semi_external_dfs(disk, memory, algorithm=algorithm)
            assert_valid_dfs_result(result, disk, graph)

    def test_sampled_subgraph_pipeline(self, tmp_path, device):
        """The Exp-1 treatment end to end: sample 50% and DFS."""
        graph = power_law_graph(400, 5, seed=2)
        kept = list(sample_edges(graph.edges(), 0.5, seed=9))
        disk = DiskGraph.from_edges(device, 400, kept)
        result = semi_external_dfs(disk, 3 * 400 + len(kept) // 4)
        assert sorted(result.order) == list(range(400))
        assert verify_dfs_tree(disk, result.tree).ok


class TestRelabelPipeline:
    def test_dfs_relabel_dfs(self, device):
        """Compute a DFS order, relabel by it, and DFS the relabelled
        graph — the locality-preprocessing workflow."""
        graph = power_law_graph(300, 4, seed=3)
        disk = DiskGraph.from_digraph(device, graph)
        memory = 3 * 300 + disk.edge_count // 4
        first = semi_external_dfs(disk, memory)
        relabelled = relabel_graph(disk, first.order)
        second = semi_external_dfs(relabelled, memory)
        assert verify_dfs_tree(relabelled, second.tree).ok
        assert sorted(second.order) == list(range(300))


class TestCheckpointPipeline:
    def test_checkpoint_travels_through_file(self, device):
        """Seal a checkpoint, reopen it, resume, verify — as a crashed
        long run would."""
        from repro.algorithms import edge_by_batch

        graph = power_law_graph(400, 5, seed=4)
        disk = DiskGraph.from_digraph(device, graph)
        memory = 3 * 400 + 150

        full = edge_by_batch(disk, memory, checkpoint_every=2)
        if full.artifact_ref is None:
            pytest.skip("run converged before the first checkpoint")
        store = ArtifactStore.for_run(device)
        checkpoint = store.open("edge-by-batch-ckpt")
        assert checkpoint.ref.path == full.artifact_ref
        restored = checkpoint.tree
        # the checkpointed tree is itself re-checkpointable
        second = store.publish_tree(restored, "edge-by-batch-ckpt")
        assert os.path.isdir(second.path)
        assert second.version == checkpoint.ref.version + 1
        resumed = edge_by_batch(disk, memory, initial_tree=restored)
        assert verify_dfs_tree(disk, resumed.tree).ok


class TestAppsCompose:
    def test_condensation_is_a_dag(self, device):
        """SCCs from the semi-external Kosaraju feed a toposort of the
        condensation — the classic two-step analysis."""
        graph = power_law_graph(250, 4, seed=5)
        disk = DiskGraph.from_digraph(device, graph)
        memory = 3 * 250 + disk.edge_count // 4
        components = strongly_connected_components(disk, memory)
        component_of = {}
        for index, members in enumerate(components):
            for node in members:
                component_of[node] = index
        condensation_edges = [
            (component_of[u], component_of[v])
            for u, v in disk.scan()
            if component_of[u] != component_of[v]
        ]
        condensation = DiskGraph.from_edges(
            device, len(components), condensation_edges, validate=False
        )
        order = sealed_topological_order(
            condensation, 3 * len(components) + len(condensation_edges) + 8
        )
        position = {c: i for i, c in enumerate(order)}
        for u, v in condensation_edges:
            assert position[u] < position[v]

    def test_connectivity_summary_consistency(self, device):
        """Bridges are exactly the singleton biconnected components."""
        graph = power_law_graph(200, 2, seed=6)
        disk = DiskGraph.from_digraph(device, graph)
        memory = 3 * 200 + disk.edge_count
        report = connectivity_report(disk, memory)
        components = biconnected_components(disk, memory)
        singleton_edges = {
            next(iter(c)) for c in components if len(c) == 1
        }
        found_bridges = {
            (min(u, v), max(u, v)) for u, v in report.bridges
        }
        assert found_bridges == singleton_edges

    def test_weak_components_bound_everything(self, device):
        graph = power_law_graph(200, 3, seed=7)
        disk = DiskGraph.from_digraph(device, graph)
        memory = 3 * 200 + disk.edge_count // 3
        weak = weakly_connected_components(disk)
        strong = strongly_connected_components(disk, memory)
        # every SCC fits inside one weak component
        weak_of = {}
        for index, members in enumerate(weak):
            for node in members:
                weak_of[node] = index
        for members in strong:
            assert len({weak_of[n] for n in members}) == 1


class TestDAGPipeline:
    def test_schedule_then_verify(self, tmp_path, device):
        dag = random_dag(300, 1500, seed=8)
        path = str(tmp_path / "dag.txt")
        write_edge_list(path, dag.edges())
        disk = load_edge_list(path, device, node_count=300)
        order = sealed_topological_order(disk, 3 * 300 + 400)
        position = {n: i for i, n in enumerate(order)}
        violations = [(u, v) for u, v in disk.scan() if position[u] >= position[v]]
        assert violations == []
