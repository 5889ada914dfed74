"""Resilient block I/O: retries, typed errors, checksums, counters.

Covers the device-level contract every structure above it inherits:
transient faults are retried and absorbed (logical I/O unchanged),
persistent corruption is *detected* and raised as a typed error, and the
new IOStats counters report exactly what happened.
"""

import os

import pytest

from repro.core.tree import SpanningTree
from repro.errors import (
    ClosedFileError,
    CorruptBlockError,
    RetriesExhausted,
    TransientIOError,
)
from repro.serve import ArtifactStore
from repro.storage import BlockDevice, FaultPlan, edge_file_from_edges
from repro.storage.serialization import FRAME_HEADER_BYTES, frame_block


def fault_device(plan=None, **kwargs):
    kwargs.setdefault("block_elements", 8)
    kwargs.setdefault("backoff_seconds", 0.0)
    return BlockDevice(fault_plan=plan, **kwargs)


class TestFraming:
    def test_roundtrip(self):
        with fault_device() as device:
            path = device.allocate_path()
            with open(path, "wb") as handle:
                device.write_block(handle, b"payload-1")
                device.write_block(handle, b"payload-two")
            with open(path, "rb") as handle:
                assert device.read_block(handle) == b"payload-1"
                assert device.read_block(handle) == b"payload-two"
                assert device.read_block(handle) is None  # clean EOF
            assert device.stats.reads == 2
            assert device.stats.writes == 2
            assert device.stats.retries == 0

    def test_eof_charges_no_io(self):
        with fault_device() as device:
            path = device.allocate_path()
            open(path, "wb").close()
            with open(path, "rb") as handle:
                assert device.read_block(handle) is None
            assert device.stats.total == 0

    def test_empty_payload_rejected(self):
        with fault_device() as device:
            path = device.allocate_path()
            with open(path, "wb") as handle:
                with pytest.raises(ValueError):
                    device.write_block(handle, b"")

    def test_bit_flip_on_disk_detected(self):
        with fault_device() as device:
            path = device.allocate_path()
            with open(path, "wb") as handle:
                device.write_block(handle, b"precious-bytes")
            # Flip one payload bit behind the device's back.
            with open(path, "r+b") as handle:
                handle.seek(FRAME_HEADER_BYTES + 3)
                byte = handle.read(1)[0]
                handle.seek(FRAME_HEADER_BYTES + 3)
                handle.write(bytes((byte ^ 0x10,)))
            with open(path, "rb") as handle:
                with pytest.raises(CorruptBlockError):
                    device.read_block(handle)
            assert device.stats.checksum_failures > 0
            assert device.stats.reads == 0  # no logical read was delivered

    def test_torn_frame_on_disk_detected(self):
        with fault_device() as device:
            path = device.allocate_path()
            with open(path, "wb") as handle:
                device.write_block(handle, b"0123456789" * 4)
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(size - 5)
            with open(path, "rb") as handle:
                with pytest.raises(CorruptBlockError, match="truncated"):
                    device.read_block(handle)

    def test_closed_device_rejects_block_io(self):
        device = fault_device()
        path = device.allocate_path()
        handle = open(path, "wb")
        device.close()
        with pytest.raises(ClosedFileError):
            device.write_block(handle, b"x")
        with pytest.raises(ClosedFileError):
            device.read_block(handle)
        handle.close()


class TestRetries:
    def test_transient_read_fault_is_absorbed(self, fault_seed):
        # One fault, then a clean disk: the retry must deliver the block
        # and charge exactly one logical read.
        plan = FaultPlan(seed=fault_seed, read_error_rate=1.0, max_faults=1)
        with fault_device(plan) as device:
            path = device.allocate_path()
            with open(path, "wb") as handle:
                device.write_block(handle, b"survives")
            with open(path, "rb") as handle:
                assert device.read_block(handle) == b"survives"
            assert device.stats.reads == 1
            assert device.stats.retries == 1
            assert device.stats.faults == 1

    def test_torn_read_heals_on_retry(self, fault_seed):
        plan = FaultPlan(seed=fault_seed, torn_read_rate=1.0, max_faults=1)
        with fault_device(plan) as device:
            path = device.allocate_path()
            with open(path, "wb") as handle:
                device.write_block(handle, b"torn-in-flight-not-on-disk")
            with open(path, "rb") as handle:
                assert device.read_block(handle) == b"torn-in-flight-not-on-disk"
            assert device.stats.checksum_failures == 1
            assert device.stats.retries == 1
            assert device.stats.reads == 1

    def test_persistent_transient_faults_exhaust_retries(self):
        plan = FaultPlan(seed=1, read_error_rate=1.0)
        with fault_device(plan, max_retries=3) as device:
            path = device.allocate_path()
            with open(path, "wb") as handle:
                device.write_block(handle, b"unreachable")
            with open(path, "rb") as handle:
                with pytest.raises(RetriesExhausted) as info:
                    device.read_block(handle)
            assert info.value.attempts == 4
            assert isinstance(info.value.last_error, TransientIOError)
            assert device.stats.retries == 3
            assert device.stats.reads == 0

    def test_write_faults_exhaust_retries(self):
        plan = FaultPlan(seed=1, write_error_rate=1.0)
        with fault_device(plan, max_retries=2) as device:
            path = device.allocate_path()
            with open(path, "wb") as handle:
                with pytest.raises(RetriesExhausted):
                    device.write_block(handle, b"never-lands")
            assert device.stats.writes == 0

    def test_corrupt_write_detected_as_corrupt_block(self):
        plan = FaultPlan(seed=2, corrupt_write_rate=1.0)
        with fault_device(plan, max_retries=2) as device:
            path = device.allocate_path()
            with open(path, "wb") as handle:
                device.write_block(handle, b"rotting-bytes")
            with open(path, "rb") as handle:
                with pytest.raises(CorruptBlockError):
                    device.read_block(handle)
            # every attempt saw the same on-disk corruption
            assert device.stats.checksum_failures == 3

    def test_torn_write_attempt_leaves_no_half_frame(self, fault_seed):
        # A failed write attempt rewinds to the block start, so after the
        # retry the file contains exactly the well-formed frames.
        plan = FaultPlan.transient(fault_seed, rate=0.4)
        with fault_device(plan, max_retries=32) as device:
            path = device.allocate_path()
            payloads = [bytes([i]) * (4 + i) for i in range(20)]
            with open(path, "wb") as handle:
                for payload in payloads:
                    device.write_block(handle, payload)
            clean = BlockDevice(block_elements=8)
            try:
                with open(path, "rb") as handle:
                    for payload in payloads:
                        assert clean.read_block(handle) == payload
                    assert clean.read_block(handle) is None
            finally:
                clean.close()
            assert os.path.getsize(path) == sum(
                FRAME_HEADER_BYTES + len(p) for p in payloads
            )

    def test_latency_injection_is_harmless(self):
        plan = FaultPlan(seed=3, latency_rate=1.0, latency_seconds=0.0,
                         max_faults=5)
        # fixed32 pinned: the injection count below assumes one block
        # transfer per 8 edges, which compression would collapse.
        with fault_device(plan, block_codec="fixed32") as device:
            edge_file = edge_file_from_edges(device, [(1, 2)] * 20)
            assert edge_file.read_all() == [(1, 2)] * 20
            assert device.faults.injected == 5
            assert device.stats.retries == 0  # latency never fails anything


class TestStructuresUnderFaults:
    def test_edge_file_scan_identical_under_survivable_plan(self, fault_seed):
        edges = [(i, (i * 13) % 97) for i in range(500)]
        with BlockDevice(block_elements=16) as clean:
            baseline = edge_file_from_edges(clean, edges)
            expected_io = clean.stats.snapshot()
            assert baseline.read_all() == edges
            expected_io = clean.stats.snapshot()

        plan = FaultPlan.transient(fault_seed, rate=0.15)
        with fault_device(plan, block_elements=16, max_retries=32) as device:
            edge_file = edge_file_from_edges(device, edges)
            assert edge_file.read_all() == edges
            snapshot = device.stats.snapshot()
            assert snapshot.reads == expected_io.reads
            assert snapshot.writes == expected_io.writes
            assert snapshot.faults == device.faults.injected > 0

    def test_tree_checkpoint_corruption_detected(self):
        tree = SpanningTree()
        tree.add_node(10, virtual=True)
        tree.root = 10
        for node in range(10):
            tree.add_node(node)
            tree.attach(node, 10)
        with fault_device(block_elements=8) as device:
            store = ArtifactStore.for_run(device)
            ref = store.publish_tree(tree, "tree")
            with open(os.path.join(ref.path, "parent.col"), "r+b") as handle:
                handle.seek(FRAME_HEADER_BYTES + 1)
                byte = handle.read(1)[0]
                handle.seek(FRAME_HEADER_BYTES + 1)
                handle.write(bytes((byte ^ 0x01,)))
            with pytest.raises(CorruptBlockError):
                store.open(str(ref))

    def test_tree_checkpoint_survives_transient_faults(self, fault_seed):
        tree = SpanningTree()
        tree.add_node(30, virtual=True)
        tree.root = 30
        for node in range(30):
            tree.add_node(node)
            tree.attach(node, 30 if node == 0 else node - 1)
        plan = FaultPlan.transient(fault_seed, rate=0.3)
        with fault_device(plan, max_retries=32) as device:
            store = ArtifactStore.for_run(device)
            loaded = store.open(str(store.publish_tree(tree, "tree"))).tree
            assert device.stats.faults > 0
            assert loaded.parent == tree.parent
            assert loaded.virtual == tree.virtual
