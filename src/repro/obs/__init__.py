"""Span-based observability for semi-external DFS runs.

The package attributes wall-clock time and block-I/O deltas to the
phases the paper reasons about (restructure passes, divisions, in-memory
solves, merges) via nested spans, and fans the resulting structured
events out to pluggable sinks.  See docs/OBSERVABILITY.md for the event
schema and usage, :mod:`repro.obs.span` for the tracer itself.
"""

from .events import SpanEvent
from .profile import LEAF_PHASES, PhaseTotal, phase_totals, render_profile
from .sinks import JSONLSink, MemorySink, TraceSink
from .span import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "JSONLSink",
    "LEAF_PHASES",
    "MemorySink",
    "NULL_TRACER",
    "NullTracer",
    "PhaseTotal",
    "Span",
    "SpanEvent",
    "TraceSink",
    "Tracer",
    "phase_totals",
    "render_profile",
]
