"""A write that fails part-way deletes every file the failing call created.

Each case drives an error out of the middle of a write: an edge id the
block codec cannot encode, or a write fault that outlasts the device's
retries.  The error must reach the caller unchanged, and the device
directory must hold exactly the files it held before the call.
"""

import os

import pytest

from repro import DiskGraph
from repro.errors import RetriesExhausted
from repro.storage import BlockDevice, FaultPlan, edge_file_from_edges, sort_edge_file


def fault_device(plan=None, **kwargs):
    kwargs.setdefault("backoff_seconds", 0.0)
    return BlockDevice(fault_plan=plan, **kwargs)


def files_on(device):
    return set(os.listdir(device.directory))


class TestDiskGraphFromEdges:
    def test_unencodable_edge_leaves_no_file(self):
        with fault_device(block_elements=8) as device:
            with pytest.raises(ValueError):
                DiskGraph.from_edges(
                    device, 3, [(0, 1), (1, 2**31)], validate=False
                )
            assert files_on(device) == set()

    def test_exhausted_write_retries_leave_no_file(self):
        plan = FaultPlan.transient(3, rate=0.99)
        with fault_device(plan, block_elements=8) as device:
            edges = [(node, (node + 1) % 9) for node in range(9)]
            with pytest.raises(RetriesExhausted):
                DiskGraph.from_edges(device, 9, edges)
            assert files_on(device) == set()


class TestEdgeFileFromEdges:
    def test_unencodable_edge_leaves_no_file(self):
        with fault_device(block_elements=8) as device:
            with pytest.raises(ValueError):
                edge_file_from_edges(device, [(0, 1), (1, 2**31)])
            assert files_on(device) == set()


class TestSortEdgeFile:
    def test_exhausted_write_retries_leave_no_run_or_output(self):
        plan = FaultPlan(seed=1, write_error_rate=0.5)
        with fault_device(plan) as device:
            # 200 edges fit one block at the default block size, so the
            # source lands before the schedule fails one of the 13 runs
            source = edge_file_from_edges(
                device, [(i % 37, (i * 7) % 41) for i in range(200)]
            )
            before = files_on(device)
            with pytest.raises(RetriesExhausted):
                sort_edge_file(device, source, memory_edges=16)
            assert files_on(device) == before
