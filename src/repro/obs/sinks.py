"""Pluggable destinations for completed span events.

A sink is anything with ``emit(event)`` (:class:`TraceSink`); the tracer
fans every completed :class:`~repro.obs.events.SpanEvent` out to all
attached sinks in attachment order.

* :class:`MemorySink` — collects events in a list; a caller that wants
  a run's events in memory attaches one to the tracer it passes.
* :class:`JSONLSink` — appends one JSON object per event to a text file
  (the ``repro dfs --trace-out events.jsonl`` format); round-trips
  through :meth:`~repro.obs.events.SpanEvent.from_dict`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, List, Optional, Protocol, TextIO

if TYPE_CHECKING:
    from .events import SpanEvent


class TraceSink(Protocol):
    """Anything that can receive completed span events."""

    def emit(self, event: "SpanEvent") -> None:
        """Handle one completed span event."""


class MemorySink:
    """Collect events in memory, in completion order."""

    def __init__(self) -> None:
        self.events: List["SpanEvent"] = []

    def emit(self, event: "SpanEvent") -> None:
        self.events.append(event)


class JSONLSink:
    """Write one JSON object per event to ``path`` (JSON-Lines).

    The file is opened lazily on the first event and must be released
    with :meth:`close` (or by using the sink as a context manager).
    Trace files are diagnostics about the run, not part of the modelled
    block I/O, so this writes through the plain filesystem.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.events_written = 0
        self._handle: Optional[TextIO] = None

    def emit(self, event: "SpanEvent") -> None:
        if self._handle is None:
            # repro: allow[SEX101] diagnostics trace file, not modelled block I/O
            self._handle = open(self.path, "w", encoding="utf-8")
        json.dump(event.to_dict(), self._handle, separators=(",", ":"))
        self._handle.write("\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush and close the output file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
