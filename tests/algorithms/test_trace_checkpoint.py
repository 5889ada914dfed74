"""Tests for run tracing and checkpoint/resume."""

import os

import pytest

from repro import DiskGraph, Tracer
from repro.algorithms import divide_td_dfs, edge_by_batch
from repro.core import verify_dfs_tree
from repro.errors import ConvergenceError
from repro.graph import power_law_graph
from repro.serve import ArtifactStore


def open_checkpoint(device, ref):
    """The tree of the checkpoint whose version directory is ``ref``."""
    store = ArtifactStore.for_run(device)
    name, version = os.path.split(os.path.relpath(ref, store.root))
    return store.open(f"{name}@{version}").tree


class TestTrace:
    def test_trace_off_by_default(self, device):
        graph = power_law_graph(300, 4, seed=1)
        disk = DiskGraph.from_digraph(device, graph)
        result = divide_td_dfs(disk, 3 * 300 + 200)
        assert result.events == []

    def test_trace_records_levels(self, device):
        graph = power_law_graph(500, 5, seed=2)
        disk = DiskGraph.from_digraph(device, graph)
        result = divide_td_dfs(disk, 3 * 500 + 300, tracer=Tracer())
        names = {event.name for event in result.events}
        assert "restructure" in names
        if result.divisions:
            # a divide span is annotated with its parts only on success
            divisions = [
                event.attributes for event in result.events
                if event.name == "divide" and "parts" in event.attributes
            ]
            assert len(divisions) == result.divisions
            for attributes in divisions:
                assert attributes["parts"] >= 2
                assert len(attributes["part_sizes"]) == attributes["parts"]
        if result.details.get("inmemory_solves"):
            assert "solve" in names

    def test_trace_depths_consistent(self, device):
        graph = power_law_graph(500, 5, seed=3)
        disk = DiskGraph.from_digraph(device, graph)
        result = divide_td_dfs(disk, 3 * 500 + 300, tracer=Tracer())
        deepest = max(
            (event.attributes["depth"] for event in result.events
             if "depth" in event.attributes),
            default=0,
        )
        assert deepest == result.max_depth


class TestCheckpointResume:
    def test_checkpoint_written_and_recorded(self, device):
        graph = power_law_graph(300, 4, seed=4)
        disk = DiskGraph.from_digraph(device, graph)
        result = edge_by_batch(disk, 3 * 300 + 200, checkpoint_every=1)
        assert result.passes >= 1
        assert result.artifact_ref is not None
        restored = open_checkpoint(device, result.artifact_ref)
        assert restored.root == result.tree.root

    def test_interrupted_run_resumes_to_valid_tree(self, device):
        graph = power_law_graph(400, 5, seed=5)
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(ConvergenceError) as exc_info:
            edge_by_batch(disk, 3 * 400 + 150, max_passes=2, checkpoint_every=1)
        ref = exc_info.value.artifact_ref
        assert ref

        restored = open_checkpoint(device, ref)
        resumed = edge_by_batch(disk, 3 * 400 + 150, initial_tree=restored)
        assert verify_dfs_tree(disk, resumed.tree).ok
        # resuming skips the work the first run already did
        full = edge_by_batch(disk, 3 * 400 + 150)
        assert resumed.passes <= full.passes

    def test_resume_excludes_start_and_order(self, device):
        graph = power_law_graph(100, 3, seed=6)
        disk = DiskGraph.from_digraph(device, graph)
        first = edge_by_batch(disk, 3 * 100 + 100, checkpoint_every=1)
        restored = open_checkpoint(device, first.artifact_ref)
        with pytest.raises(ValueError):
            edge_by_batch(disk, 3 * 100 + 100, initial_tree=restored, start=3)

    def test_no_checkpoint_without_option(self, device):
        graph = power_law_graph(150, 3, seed=7)
        disk = DiskGraph.from_digraph(device, graph)
        result = edge_by_batch(disk, 3 * 150 + 150)
        assert result.artifact_ref is None
        assert ArtifactStore.for_run(device).names() == []

    def test_deadline_raise_takes_the_checkpoint_path(self, device):
        # an already-expired deadline aborts before the first pass ends
        # (per-pass check, plus per-batch via restructure's check_deadline);
        # with checkpointing on, the abort still writes a resumable tree
        graph = power_law_graph(200, 4, seed=8)
        disk = DiskGraph.from_digraph(device, graph)
        with pytest.raises(ConvergenceError, match="deadline") as exc_info:
            edge_by_batch(
                disk, 3 * 200 + 150, deadline_seconds=0.0, checkpoint_every=1,
            )
        ref = exc_info.value.artifact_ref
        assert ref
        restored = open_checkpoint(device, ref)
        resumed = edge_by_batch(disk, 3 * 200 + 150, initial_tree=restored)
        assert verify_dfs_tree(disk, resumed.tree).ok
