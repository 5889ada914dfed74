"""Semi-external BFS under injected storage faults.

Same contract the DFS algorithms are held to: a survivable transient
plan changes *nothing* observable — levels, order, pass count, logical
I/O counters, and the sealed tree bytes all match the fault-free run —
while retries/faults are reported out-of-band.  Unsurvivable plans fail
with the typed storage errors, and no part or temp files leak into the
device directory regardless of outcome.
"""

import os

import pytest

from repro import BlockDevice, DiskGraph, semi_external_bfs
from repro.errors import CorruptBlockError, RetriesExhausted
from repro.graph import random_graph
from repro.storage import FaultPlan

from .test_algorithms_under_faults import tree_bytes


def run_bfs(graph, *, fault_plan=None, **device_kwargs):
    device_kwargs.setdefault("block_elements", 16)
    with BlockDevice(fault_plan=fault_plan, backoff_seconds=0.0,
                     **device_kwargs) as device:
        disk_graph = DiskGraph.from_digraph(device, graph)
        baseline = device.stats.snapshot()
        result = semi_external_bfs(disk_graph, 3 * graph.node_count + 64)
        injected = device.faults.injected if device.faults else 0
        return result, device.stats.snapshot() - baseline, injected, device


class TestSurvivablePlans:
    def test_transient_faults_change_nothing_observable(self, fault_seed):
        graph = random_graph(200, 4, seed=fault_seed + 2)
        clean_result, clean_io, _, _ = run_bfs(graph)
        plan = FaultPlan.transient(fault_seed, rate=0.1)
        faulty_result, faulty_io, injected, _ = run_bfs(
            graph, fault_plan=plan, max_retries=32
        )
        assert injected > 0
        assert faulty_result.levels == clean_result.levels
        assert faulty_result.order == clean_result.order
        assert faulty_result.passes == clean_result.passes
        assert tree_bytes(faulty_result.tree) == tree_bytes(clean_result.tree)
        # logical EM accounting is fault-invariant; resilience counters
        # carry the real story out-of-band
        assert (faulty_io.reads, faulty_io.writes) == (
            clean_io.reads, clean_io.writes
        )
        assert faulty_result.retries > 0
        assert faulty_result.faults > 0
        assert clean_result.retries == clean_result.faults == 0

    def test_no_temp_files_leak_after_faulty_run(self, fault_seed):
        graph = random_graph(80, 4, seed=fault_seed + 3)
        plan = FaultPlan.transient(fault_seed, rate=0.1)
        with BlockDevice(fault_plan=plan, backoff_seconds=0.0,
                         block_elements=16, max_retries=32) as device:
            disk_graph = DiskGraph.from_digraph(device, graph)
            semi_external_bfs(disk_graph, 3 * 80 + 64)
            assert device.faults is not None and device.faults.injected > 0
            names = sorted(os.listdir(device.directory))
            # exactly the sealed edge file and the run's artifact store
            assert len(names) == 2
            assert any(name.endswith(".edges") for name in names)
            assert "artifacts" in names
            version_dir = os.path.join(
                device.directory, "artifacts", "bfs-tree", "v000001"
            )
            published = sorted(os.listdir(version_dir))
            # atomic publish: only the manifest and the tree's parent and
            # pre columns, no staging leftovers even under injected faults
            assert published == ["manifest.json", "parent.col", "pre.col"]


class TestUnsurvivablePlans:
    def test_read_error_storm_raises_typed_error(self):
        graph = random_graph(30, 3, seed=5)
        plan = FaultPlan(seed=5, read_error_rate=1.0)
        with pytest.raises(RetriesExhausted):
            run_bfs(graph, fault_plan=plan, max_retries=2)

    def test_corrupt_writes_detected_as_corruption(self):
        graph = random_graph(30, 3, seed=6)
        plan = FaultPlan(seed=6, corrupt_write_rate=1.0)
        with pytest.raises(CorruptBlockError):
            run_bfs(graph, fault_plan=plan, max_retries=2)

    def test_failed_run_leaks_no_partial_artifacts(self):
        """A read storm kills the run mid-pass; the device directory must
        still hold only the sealed edge file — no half-written tree."""
        graph = random_graph(30, 3, seed=7)
        plan = FaultPlan(seed=7, read_error_rate=1.0)
        with BlockDevice(fault_plan=plan, backoff_seconds=0.0,
                         block_elements=16, max_retries=2) as device:
            disk_graph = DiskGraph.from_digraph(device, graph)
            with pytest.raises(RetriesExhausted):
                semi_external_bfs(disk_graph, 3 * 30 + 64)
            names = sorted(os.listdir(device.directory))
            assert names == [
                name for name in names if name.endswith(".edges")
            ]
