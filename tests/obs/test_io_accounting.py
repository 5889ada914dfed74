"""The tiling invariant: leaf-phase I/O deltas sum to the run's total.

This is the acceptance property of the observability layer — the
non-overlapping phase spans (``LEAF_PHASES``) partition every block the
algorithms transfer, so their read/write deltas must add up exactly to
``DFSResult.io.reads`` / ``.writes`` — and the converse guarantee that
tracing is free when disabled.  The events come from a sink the test
attaches to the tracer it passes, the one channel a run's events take.
"""

import pytest

from repro import DiskGraph, RunOptions, Tracer, semi_external_dfs
from repro.algorithms import (
    divide_star_dfs,
    divide_td_dfs,
    edge_by_batch,
    edge_by_edge,
    semi_external_bfs,
)
from repro.graph import random_graph
from repro.obs import MemorySink, phase_totals

ALGORITHM_NAMES = [
    "edge-by-edge", "edge-by-batch", "divide-star", "divide-td", "bfs",
]


def run(device, algorithm, tracer=None, nodes=80, degree=4, seed=11):
    graph = random_graph(nodes, degree, seed=seed)
    disk = DiskGraph.from_digraph(device, graph)
    options = RunOptions(tracer=tracer) if tracer is not None else None
    return semi_external_dfs(
        disk, memory=3 * nodes + 60, algorithm=algorithm, options=options,
    )


def traced_run(device, algorithm, **graph_args):
    """Run under a tracer with a memory sink; ``(result, events)``."""
    sink = MemorySink()
    result = run(device, algorithm, tracer=Tracer(sinks=[sink]), **graph_args)
    return result, sink.events


class TestPhaseSumsMatchRunTotals:
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_leaf_phase_deltas_tile_the_run(self, device, algorithm):
        result, events = traced_run(device, algorithm)
        assert events, "traced run produced no span events"
        totals = phase_totals(events)
        assert sum(t.io.reads for t in totals.values()) == result.io.reads
        assert sum(t.io.writes for t in totals.values()) == result.io.writes

    def test_divide_conquer_covers_all_phases(self, device):
        result, events = traced_run(device, "divide-td", nodes=120, degree=5)
        names = {event.name for event in events}
        assert {"restructure", "divide", "solve"} <= names
        if result.divisions:
            assert "merge" in names and "part" in names

    def test_events_capture_division_structure(self, device):
        result, events = traced_run(device, "divide-td", nodes=120, degree=5)
        divisions = [
            e for e in events
            if e.name == "divide" and "parts" in e.attributes
        ]
        assert len(divisions) == result.divisions
        for event in divisions:
            assert event.attributes["parts"] == len(
                event.attributes["part_sizes"]
            )


class TestTracingIsFree:
    @pytest.mark.parametrize("algorithm", ["edge-by-batch", "divide-td"])
    def test_null_tracer_changes_nothing(self, device_factory, algorithm):
        untraced = run(device_factory(), algorithm)
        traced = run(device_factory(), algorithm, tracer=Tracer())
        assert traced.io.reads == untraced.io.reads
        assert traced.io.writes == untraced.io.writes
        assert traced.order == untraced.order
        assert traced.passes == untraced.passes


class TestRejectedRunUnbindsTracer:
    @pytest.mark.parametrize("runner", [
        edge_by_edge, edge_by_batch, divide_star_dfs, divide_td_dfs,
        semi_external_bfs,
    ], ids=lambda runner: runner.__name__)
    def test_rejected_start_leaves_no_io_on_the_tracer(self, device, runner):
        disk = DiskGraph.from_digraph(device, random_graph(40, 3, seed=5))
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        with pytest.raises(ValueError, match="out of range"):
            runner(disk, 3 * 40 + 60, start=-1, tracer=tracer)
        with tracer.span("probe"):
            scanned = sum(1 for _ in disk.edge_file.scan())
        assert scanned == disk.edge_count
        assert sink.events[-1].name == "probe"
        assert sink.events[-1].io.reads == 0
