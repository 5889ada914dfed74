"""End-to-end resilience: the three algorithms under fault plans.

The headline acceptance test: a ``divide-td`` run on a ~10k-edge random
digraph under a survivable :class:`FaultPlan` with dozens of injected
transient faults must produce a *byte-identical* DFS-Tree and identical
logical read/write/pass counters to the fault-free run — retries and
faults are reported separately and never leak into the EM cost model.
An unsurvivable plan must fail with the typed error, from every
algorithm.
"""

import pytest

from repro import BlockDevice, DiskGraph, semi_external_dfs
from repro.errors import CorruptBlockError, RetriesExhausted
from repro.graph import random_graph
from repro.storage import FaultPlan
from repro.storage.serialization import pack_ints

ALGORITHMS = ["edge-by-edge", "edge-by-batch", "divide-td"]


def tree_bytes(tree) -> bytes:
    """Canonical serialization of a spanning tree, for byte comparison."""
    values = [tree.root]
    for node in tree.preorder():
        parent = tree.parent[node]
        values.append(node)
        values.append(-1 if parent is None else parent)
        values.append(1 if tree.is_virtual(node) else 0)
    return pack_ints(values)


def run_algorithm(algorithm, graph, *, fault_plan=None, free=64,
                  **device_kwargs):
    """``(result, the run's I/O, faults injected, device totals)`` of one
    run at ``M = 3n + free``."""
    device_kwargs.setdefault("block_elements", 64)
    with BlockDevice(fault_plan=fault_plan, backoff_seconds=0.0,
                     **device_kwargs) as device:
        disk_graph = DiskGraph.from_digraph(device, graph)
        baseline = device.stats.snapshot()
        result = semi_external_dfs(
            disk_graph, memory=3 * graph.node_count + free,
            algorithm=algorithm,
        )
        injected = device.faults.injected if device.faults else 0
        return result, device.stats.snapshot() - baseline, injected, device.stats.snapshot()


class TestSurvivablePlans:
    def test_divide_td_acceptance(self, fault_seed):
        """ISSUE acceptance: ~10k edges, >=50 transient faults, identical
        logical counters and byte-identical tree vs the fault-free run."""
        graph = random_graph(2000, 5, seed=fault_seed)
        assert graph.edge_count >= 9000

        clean_result, clean_io, _, _ = run_algorithm("divide-td", graph)
        plan = FaultPlan.transient(fault_seed, rate=0.02)
        faulty_result, faulty_io, injected, faulty_total = run_algorithm(
            "divide-td", graph, fault_plan=plan, max_retries=16
        )

        assert injected >= 50
        assert tree_bytes(faulty_result.tree) == tree_bytes(clean_result.tree)
        assert faulty_result.order == clean_result.order
        # Logical EM accounting is fault-invariant...
        assert faulty_io.reads == clean_io.reads
        assert faulty_io.writes == clean_io.writes
        assert faulty_result.passes == clean_result.passes
        # ...while the resilience counters tell the real story.  (The
        # device total also covers faults hit while materializing the
        # graph, before the algorithm's own I/O window opens.)
        assert faulty_result.retries > 0
        assert faulty_result.faults > 0
        assert faulty_total.faults == injected
        assert clean_result.retries == clean_result.faults == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_survives_transient_faults(
        self, algorithm, fault_seed
    ):
        graph = random_graph(120, 4, seed=fault_seed + 1)
        clean_result, clean_io, _, _ = run_algorithm(
            algorithm, graph, block_elements=16
        )
        plan = FaultPlan.transient(fault_seed, rate=0.1)
        faulty_result, faulty_io, injected, _ = run_algorithm(
            algorithm, graph, fault_plan=plan, max_retries=32,
            block_elements=16,
        )
        assert injected > 0
        assert faulty_result.order == clean_result.order
        assert tree_bytes(faulty_result.tree) == tree_bytes(clean_result.tree)
        assert (faulty_io.reads, faulty_io.writes) == (
            clean_io.reads, clean_io.writes
        )
        assert faulty_result.passes == clean_result.passes

    @pytest.mark.parametrize("algorithm", ["edge-by-batch", "divide-td"])
    def test_faults_in_multi_block_groups_change_nothing(
        self, algorithm, fault_seed
    ):
        """At ``M = 3n + 8·64`` a restructure group spans up to eight
        64-edge blocks, so faults also land in blocks read ahead of a
        group's first kernel call."""
        graph = random_graph(400, 6, seed=fault_seed + 2)
        free = 8 * 64
        clean_result, clean_io, _, _ = run_algorithm(
            algorithm, graph, free=free
        )
        faulty_result, faulty_io, injected, _ = run_algorithm(
            algorithm, graph, fault_plan=FaultPlan.transient(fault_seed),
            max_retries=16, free=free,
        )
        assert injected > 0
        assert faulty_result.order == clean_result.order
        assert tree_bytes(faulty_result.tree) == tree_bytes(clean_result.tree)
        assert (faulty_io.reads, faulty_io.writes) == (
            clean_io.reads, clean_io.writes
        )
        assert faulty_result.passes == clean_result.passes


class TestUnsurvivablePlans:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_read_error_storm_raises_typed_error(self, algorithm):
        # Writes succeed (the graph materializes), then every read fails
        # harder than the retry budget can absorb.
        graph = random_graph(30, 3, seed=5)
        plan = FaultPlan(seed=5, read_error_rate=1.0)
        with pytest.raises(RetriesExhausted):
            run_algorithm(algorithm, graph, fault_plan=plan,
                          block_elements=16, max_retries=2)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_corrupt_writes_detected_as_corruption(self, algorithm):
        # Every block is bit-flipped after its checksum is computed: the
        # first read back must detect it and raise, not return garbage.
        graph = random_graph(30, 3, seed=6)
        plan = FaultPlan(seed=6, corrupt_write_rate=1.0)
        with pytest.raises(CorruptBlockError):
            run_algorithm(algorithm, graph, fault_plan=plan,
                          block_elements=16, max_retries=2)
