"""Tests for phase aggregation and profile rendering."""

from repro.obs import (
    LEAF_PHASES,
    MemorySink,
    Metrics,
    Tracer,
    phase_totals,
    render_profile,
)
from repro.storage import IOStats


def record_run(spans):
    """Replay a nested span script: (name, reads, attrs, children)."""
    sink = MemorySink()
    stats = IOStats()
    tracer = Tracer(sinks=[sink])
    tracer.bind(stats)

    def play(name, reads, attrs, children):
        with tracer.span(name, **attrs):
            stats.add_reads(reads)
            for child in children:
                play(*child)

    for span in spans:
        play(*span)
    return sink.events


class TestPhaseTotals:
    def test_leaf_phases_only_by_default(self):
        events = record_run([
            ("restructure", 5, {}, []),
            ("divide", 0, {}, [("sgraph", 7, {}, [])]),
            ("part", 0, {}, [("solve", 3, {}, [])]),
        ])
        totals = phase_totals(events)
        assert set(totals) == {"restructure", "divide", "solve"}
        assert totals["restructure"].io.reads == 5
        assert totals["divide"].io.reads == 7  # includes the sgraph child
        assert totals["solve"].io.reads == 3
        assert "part" not in totals and "sgraph" not in totals

    def test_custom_phase_set(self):
        events = record_run([
            ("divide", 0, {}, [("sgraph", 7, {}, [])]),
        ])
        totals = phase_totals(events, phases={"sgraph"})
        assert totals["sgraph"].calls == 1
        assert totals["sgraph"].io.reads == 7

    def test_calls_accumulate_across_spans(self):
        events = record_run([
            ("restructure", 2, {}, []),
            ("restructure", 3, {}, []),
        ])
        totals = phase_totals(events)
        assert totals["restructure"].calls == 2
        assert totals["restructure"].io.reads == 5

    def test_leaf_phases_inventory(self):
        assert LEAF_PHASES == {
            "restructure", "divide", "solve", "merge", "checkpoint", "sort",
            "relax",
        }


class TestRenderProfile:
    def test_empty_stream(self):
        assert "no span events" in render_profile([])

    def test_paths_indent_under_parents(self):
        events = record_run([
            ("divide", 0, {}, [("sgraph", 4, {}, [])]),
        ])
        text = render_profile(events)
        lines = text.splitlines()
        divide_line = next(l for l in lines if l.startswith("divide"))
        sgraph_line = next(l for l in lines if "sgraph" in l)
        assert sgraph_line.startswith("  sgraph")
        assert lines.index(divide_line) < lines.index(sgraph_line)

    def test_metrics_section(self):
        events = record_run([("solve", 1, {}, [])])
        metrics = Metrics()
        metrics.count("device.read_retries", 3)
        text = render_profile(events, metrics)
        assert "metrics:" in text
        assert "device.read_retries = 3" in text

    def test_no_metrics_section_when_empty(self):
        events = record_run([("solve", 1, {}, [])])
        assert "metrics:" not in render_profile(events, Metrics())
