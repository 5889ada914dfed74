"""Unit tests for the span tracer: nesting, deltas, sinks, metrics."""

import json

import pytest

from repro.obs import (
    JSONLSink,
    MemorySink,
    NULL_TRACER,
    NullTracer,
    SpanEvent,
    Tracer,
)
from repro.storage import IOSnapshot, IOStats


@pytest.fixture
def traced():
    """A tracer with a memory sink and a hand-cranked I/O counter."""
    sink = MemorySink()
    stats = IOStats()
    tracer = Tracer(sinks=[sink])
    tracer.bind(stats)
    return tracer, sink, stats


class TestNesting:
    def test_parent_child_ids_and_depths(self, traced):
        tracer, sink, _ = traced
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner_event, outer_event = sink.events
        assert inner_event.name == "inner"
        assert inner_event.parent_id == outer.span_id
        assert inner_event.depth == 1
        assert outer_event.name == "outer"
        assert outer_event.parent_id is None
        assert outer_event.depth == 0

    def test_children_exit_before_parents(self, traced):
        tracer, sink, _ = traced
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [e.name for e in sink.events] == ["b", "c", "a"]
        assert [e.sequence for e in sink.events] == [0, 1, 2]

    def test_siblings_share_parent(self, traced):
        tracer, sink, _ = traced
        with tracer.span("root") as root:
            with tracer.span("left"):
                pass
            with tracer.span("right"):
                pass
        by_name = {e.name: e for e in sink.events}
        assert by_name["left"].parent_id == root.span_id
        assert by_name["right"].parent_id == root.span_id
        assert by_name["left"].span_id != by_name["right"].span_id

    def test_annotate_lands_in_attributes(self, traced):
        tracer, sink, _ = traced
        with tracer.span("phase", depth=3) as span:
            span.annotate(parts=7, sizes=[1, 2])
        (event,) = sink.events
        assert event.attributes == {"depth": 3, "parts": 7, "sizes": [1, 2]}

    def test_exception_sets_error_attribute(self, traced):
        tracer, sink, _ = traced
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (event,) = sink.events
        assert event.attributes["error"] == "RuntimeError"

    def test_elapsed_is_nonnegative(self, traced):
        tracer, sink, _ = traced
        with tracer.span("quick"):
            pass
        assert sink.events[0].elapsed_seconds >= 0.0


class TestIODeltaAttribution:
    def test_delta_is_scoped_to_the_span(self, traced):
        tracer, sink, stats = traced
        stats.add_reads(5)  # before the span: not charged to it
        with tracer.span("work"):
            stats.add_reads(3)
            stats.add_writes(2)
        stats.add_writes(9)  # after the span: not charged either
        (event,) = sink.events
        assert event.io.reads == 3
        assert event.io.writes == 2

    def test_parent_delta_includes_children(self, traced):
        tracer, sink, stats = traced
        with tracer.span("parent"):
            stats.add_reads(1)
            with tracer.span("child"):
                stats.add_reads(10)
        by_name = {e.name: e for e in sink.events}
        assert by_name["child"].io.reads == 10
        assert by_name["parent"].io.reads == 11

    def test_retries_and_faults_are_tracked(self, traced):
        tracer, sink, stats = traced
        with tracer.span("flaky"):
            stats.add_retries(4)
            stats.add_faults(2)
            stats.add_checksum_failures(1)
        (event,) = sink.events
        assert event.io.retries == 4
        assert event.io.faults == 2
        assert event.io.checksum_failures == 1

    def test_unbound_tracer_reports_zero_io(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("dry"):
            pass
        assert sink.events[0].io.total == 0


class TestSinks:
    def test_detached_sink_stops_receiving(self, traced):
        tracer, sink, _ = traced
        extra = MemorySink()
        tracer.attach(extra)
        with tracer.span("one"):
            pass
        tracer.detach(extra)
        with tracer.span("two"):
            pass
        assert [e.name for e in extra.events] == ["one"]
        assert [e.name for e in sink.events] == ["one", "two"]

    def test_jsonl_round_trip(self, tmp_path, traced):
        tracer, sink, stats = traced
        path = tmp_path / "events.jsonl"
        with JSONLSink(str(path)) as jsonl:
            tracer.attach(jsonl)
            with tracer.span("outer", label="x"):
                stats.add_reads(2)
                with tracer.span("inner"):
                    stats.add_writes(1)
            assert jsonl.events_written == 2
        with open(path) as handle:
            restored = [
                SpanEvent.from_dict(json.loads(line)) for line in handle
            ]
        assert restored == sink.events

    def test_jsonl_no_events_no_file(self, tmp_path):
        path = tmp_path / "never.jsonl"
        with JSONLSink(str(path)):
            pass
        assert not path.exists()

    def test_from_dict_rejects_malformed_numbers(self):
        event = SpanEvent(
            name="n", span_id=1, parent_id=None, depth=0, sequence=0,
            elapsed_seconds=0.5, io=IOSnapshot(reads=0, writes=0),
        )
        data = event.to_dict()
        data["reads"] = "three"
        with pytest.raises(ValueError, match="reads"):
            SpanEvent.from_dict(data)


class TestMetricsAndProgress:
    def test_counters_accumulate(self, traced):
        tracer, _, _ = traced
        tracer.count("retries")
        tracer.count("retries", 4)
        assert tracer.metrics.counters["retries"] == 5


class TestNullTracer:
    def test_everything_is_a_no_op(self):
        sink = MemorySink()
        tracer = NullTracer()
        tracer.attach(sink)
        tracer.bind(IOStats())
        with tracer.span("ignored", attr=1) as span:
            span.annotate(more=2)
        tracer.count("x")
        assert sink.events == []
        assert not tracer.metrics
        assert not tracer.enabled

    def test_shared_singleton_span(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
