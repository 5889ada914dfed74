"""The tiling invariant: leaf-phase I/O deltas sum to the run's total.

This is the acceptance property of the observability layer — the
non-overlapping phase spans (``LEAF_PHASES``) partition every block the
algorithms transfer, so their read/write deltas must add up exactly to
``DFSResult.io.reads`` / ``.writes`` — and the converse guarantee that
tracing is free when disabled.
"""

import pytest

from repro import DiskGraph, RunOptions, Tracer, semi_external_dfs
from repro.graph import random_graph
from repro.obs import phase_totals

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


class TestPhaseSumsMatchRunTotals:
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_leaf_phase_deltas_tile_the_run(self, device, algorithm):
        tracer = Tracer()
        result = run(device, algorithm, tracer=tracer)
        assert result.events, "traced run produced no span events"
        totals = phase_totals(result.events)
        assert sum(t.io.reads for t in totals.values()) == result.io.reads
        assert sum(t.io.writes for t in totals.values()) == result.io.writes

    def test_divide_conquer_covers_all_phases(self, device):
        tracer = Tracer()
        result = run(device, "divide-td", tracer=tracer, nodes=120, degree=5)
        names = {event.name for event in result.events}
        assert {"restructure", "divide", "solve"} <= names
        if result.divisions:
            assert "merge" in names and "part" in names

    def test_events_capture_division_structure(self, device):
        tracer = Tracer()
        result = run(device, "divide-td", tracer=tracer, nodes=120, degree=5)
        divisions = [
            e for e in result.events
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

    def test_untraced_run_has_no_events(self, device):
        result = run(device, "divide-td")
        assert result.events == []

    def test_traced_events_need_no_user_sink(self, device):
        # RunContext attaches its own memory sink, so a bare Tracer() is
        # enough to populate DFSResult.events.
        result = run(device, "edge-by-batch", tracer=Tracer())
        assert any(e.name == "restructure" for e in result.events)
