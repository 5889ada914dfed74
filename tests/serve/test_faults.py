"""Artifact store under injected storage faults.

Payload I/O flows through the BlockDevice, so the store inherits the
device's resilience contract: transient fault plans change nothing
observable (same bytes, same manifest, same answers), unsurvivable
plans surface as the typed storage errors, and a failed publish leaves
no partial version behind.
"""

from __future__ import annotations

import os

import pytest

from repro import BlockDevice, DiskGraph, semi_external_dfs
from repro.errors import CorruptBlockError, RetriesExhausted
from repro.graph import random_graph
from repro.serve import ArtifactStore, seal_result
from repro.storage import FaultPlan


def sealed(device, graph, sources=(0,)):
    disk = DiskGraph.from_digraph(device, graph)
    memory = 3 * graph.node_count + 64
    result = semi_external_dfs(disk, memory)
    return seal_result(disk, result, memory=memory, sources=sources)


class TestSurvivablePlans:
    def test_transient_faults_change_nothing_observable(self, tmp_path,
                                                        fault_seed):
        graph = random_graph(60, 3, seed=fault_seed + 11)

        def publish_and_reopen(fault_plan):
            root = str(tmp_path / f"store-{fault_plan is not None}")
            with BlockDevice(fault_plan=fault_plan, backoff_seconds=0.0,
                             block_elements=16, max_retries=32) as device:
                store = ArtifactStore(root, device=device)
                artifact = sealed(device, graph)
                ref = store.publish(artifact, "g")
                reopened = store.open(str(ref))
                injected = device.faults.injected if device.faults else 0
                return reopened, injected

        clean, _ = publish_and_reopen(None)
        plan = FaultPlan.transient(fault_seed, rate=0.1)
        faulty, injected = publish_and_reopen(plan)
        assert injected > 0
        assert faulty.manifest == clean.manifest
        assert faulty.order_slice() == clean.order_slice()
        assert faulty.reachable_set(0) == clean.reachable_set(0)

    def test_no_staging_leftovers_after_faulty_publish(self, tmp_path,
                                                       fault_seed):
        graph = random_graph(40, 3, seed=fault_seed + 12)
        plan = FaultPlan.transient(fault_seed, rate=0.1)
        root = str(tmp_path / "store")
        with BlockDevice(fault_plan=plan, backoff_seconds=0.0,
                         block_elements=16, max_retries=32) as device:
            store = ArtifactStore(root, device=device)
            ref = store.publish(sealed(device, graph), "g")
            name_dir = os.path.dirname(ref.path)
            assert sorted(os.listdir(name_dir)) == ["v000001"]


class TestUnsurvivablePlans:
    def test_write_storm_fails_typed_and_leaves_no_version(self, tmp_path):
        graph = random_graph(30, 3, seed=5)
        root = str(tmp_path / "store")
        with BlockDevice(block_elements=16) as clean_device:
            artifact = sealed(clean_device, graph)
        plan = FaultPlan(seed=5, write_error_rate=1.0)
        with BlockDevice(fault_plan=plan, backoff_seconds=0.0,
                         block_elements=16, max_retries=2) as device:
            store = ArtifactStore(root, device=device)
            with pytest.raises(RetriesExhausted):
                store.publish(artifact, "g")
            # the failed version never became visible, and its staging
            # directory is gone too
            assert store.versions("g") == []
            assert os.listdir(os.path.join(root, "g")) == []
            with pytest.raises(Exception):
                store.open("g")

    def test_read_storm_on_open_fails_typed(self, tmp_path):
        graph = random_graph(30, 3, seed=6)
        root = str(tmp_path / "store")
        with BlockDevice(block_elements=16) as device:
            store = ArtifactStore(root, device=device)
            ref = store.publish(sealed(device, graph), "g")
        plan = FaultPlan(seed=6, read_error_rate=1.0)
        with BlockDevice(fault_plan=plan, backoff_seconds=0.0,
                         block_elements=16, max_retries=2) as device:
            store = ArtifactStore(root, device=device)
            with pytest.raises(RetriesExhausted):
                store.open(str(ref))

    def test_corrupt_reads_detected_per_block(self, tmp_path):
        graph = random_graph(30, 3, seed=7)
        root = str(tmp_path / "store")
        with BlockDevice(block_elements=16) as device:
            store = ArtifactStore(root, device=device)
            ref = store.publish(sealed(device, graph), "g")
        plan = FaultPlan(seed=7, torn_read_rate=1.0)
        with BlockDevice(fault_plan=plan, backoff_seconds=0.0,
                         block_elements=16, max_retries=2) as device:
            store = ArtifactStore(root, device=device)
            with pytest.raises((CorruptBlockError, RetriesExhausted)):
                store.open(str(ref))
