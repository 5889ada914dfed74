"""Span-based tracing: attribute wall-clock and I/O deltas to phases.

The paper's whole argument is a *cost story* — restructure passes,
division attempts, S-Graph builds, per-part recursions, merges — yet a
single end-of-run :class:`~repro.storage.io_stats.IOSnapshot` cannot say
*which* phase paid for what.  A :class:`Tracer` fixes that: entering a
:class:`Span` snapshots the bound :class:`~repro.storage.io_stats.IOStats`
counter and a perf counter; exiting records the elapsed time, the
read/write/retry/fault deltas, and free-form attributes into an immutable
:class:`~repro.obs.events.SpanEvent` that is fanned out to pluggable
sinks (:mod:`repro.obs.sinks`).

Spans nest: a ``divide`` span contains ``sgraph`` and ``partition``
children, a ``part`` span contains the recursion's own ``restructure``
spans, and so on.  A parent's delta therefore *includes* its children's —
per-phase totals that must tile the run sum only the non-overlapping
phase spans (see :data:`repro.obs.profile.LEAF_PHASES`).

:class:`NullTracer` is the disabled implementation: every operation is a
no-op, no sink is ever attached, and — asserted by a regression test — it
charges no I/O and allocates no events, so instrumented code paths can
call it unconditionally.

Determinism note: the perf-counter reads in this module are purely
observational — they land in event records and never feed tree
construction — which is why ``repro/obs/`` is on the conformance
checker's waiver-free allowlist for the SEX3xx wall-clock rule (see
``repro.analysis.rules.base.OBSERVABILITY_PATH_PREFIXES``).
"""

from __future__ import annotations

import time
from types import TracebackType
from typing import Dict, List, Optional, Sequence, Type

from ..storage.io_stats import IOSnapshot, IOStats
from .events import ZERO_IO, SpanEvent
from .sinks import TraceSink


class Span:
    """An open phase: a context manager that measures until exit.

    Obtained from :meth:`Tracer.span`; use :meth:`annotate` to add
    attributes discovered mid-phase (batch counts, part sizes, ...).
    """

    __slots__ = (
        "_tracer", "name", "span_id", "parent_id", "depth",
        "_attributes", "_start_seconds", "_start_io", "_closed",
    )

    def __init__(
        self,
        tracer: Optional["Tracer"],
        name: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        attributes: Dict[str, object],
        start_seconds: float,
        start_io: IOSnapshot,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self._attributes = attributes
        self._start_seconds = start_seconds
        self._start_io = start_io
        self._closed = False

    def annotate(self, **attributes: object) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self._attributes.update(attributes)

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if self._closed or self._tracer is None:
            return
        self._closed = True
        if exc_type is not None:
            self._attributes.setdefault("error", exc_type.__name__)
        self._tracer._exit_span(self)


class _NullSpan(Span):
    """The shared no-op span handed out by :class:`NullTracer`."""

    def __init__(self) -> None:
        super().__init__(
            tracer=None, name="", span_id=0, parent_id=None, depth=0,
            attributes={}, start_seconds=0.0, start_io=ZERO_IO,
        )

    def annotate(self, **attributes: object) -> None:
        return None

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


class Tracer:
    """Collects span events and fans them out to its sinks.

    Args:
        sinks: initial sinks to fan events out to (more can be attached
            with :meth:`attach`).  The sinks are the only place a run's
            events go: a caller that wants them in memory attaches a
            :class:`~repro.obs.sinks.MemorySink`.

    The tracer measures I/O against the :class:`IOStats` counter bound
    with :meth:`bind` (a run context binds its device's counter).  With
    no counter bound, spans still measure wall-clock time and report
    zero I/O deltas.
    """

    def __init__(self, sinks: Sequence[TraceSink] = ()) -> None:
        self._sinks: List[TraceSink] = list(sinks)
        self._stats: Optional[IOStats] = None
        self._stack: List[Span] = []
        self._next_id = 1
        self._sequence = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, stats: Optional[IOStats]) -> None:
        """Bind the I/O counter spans snapshot (``None`` unbinds)."""
        self._stats = stats

    def attach(self, sink: TraceSink) -> None:
        """Add a sink; it receives every event completed from now on."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _snapshot_io(self) -> IOSnapshot:
        return self._stats.snapshot() if self._stats is not None else ZERO_IO

    def span(self, name: str, **attributes: object) -> Span:
        """Open a span; use as ``with tracer.span("restructure", ...):``."""
        parent = self._stack[-1] if self._stack else None
        opened = Span(
            tracer=self,
            name=name,
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            depth=len(self._stack),
            attributes=dict(attributes),
            start_seconds=time.perf_counter(),
            start_io=self._snapshot_io(),
        )
        self._next_id += 1
        self._stack.append(opened)
        return opened

    def _exit_span(self, span: Span) -> None:
        # Unwind to (and including) the exiting span so a missed inner
        # __exit__ cannot corrupt attribution for the rest of the run.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        elapsed = time.perf_counter() - span._start_seconds
        event = SpanEvent(
            name=span.name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            depth=span.depth,
            sequence=self._sequence,
            elapsed_seconds=elapsed,
            io=self._snapshot_io() - span._start_io,
            attributes=dict(span._attributes),
        )
        self._sequence += 1
        for sink in self._sinks:
            sink.emit(event)


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op.

    Safe (and cheap) to call on every hot path — it never snapshots I/O
    counters, never allocates events, and ignores sink attachment, so a
    run traced by it is bit-identical to an untraced run.
    """

    _NULL_SPAN = _NullSpan()

    def bind(self, stats: Optional[IOStats]) -> None:
        return None

    def attach(self, sink: TraceSink) -> None:
        return None

    def span(self, name: str, **attributes: object) -> Span:
        return self._NULL_SPAN


#: Shared disabled tracer for default arguments; stateless, so one
#: instance serves every caller.
NULL_TRACER = NullTracer()
