"""The structured event record produced by completed spans.

One :class:`SpanEvent` is one completed phase: its name, its position in
the span tree (``span_id`` / ``parent_id`` / ``depth``), its completion
order (``sequence``), the wall-clock it took, the
:class:`~repro.storage.io_stats.IOSnapshot` delta it charged (children
included), and free-form JSON-compatible attributes.  The JSONL sink
writes exactly :meth:`SpanEvent.to_dict` per line; the documented event
schema lives in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..storage.io_stats import IOSnapshot

#: Zero-I/O delta used when a tracer has no bound counter.
ZERO_IO = IOSnapshot(reads=0, writes=0)


def _as_int(value: object, key: str) -> int:
    """Strictly-typed JSON number coercion for :meth:`SpanEvent.from_dict`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"span event field {key!r} must be a number")
    return int(value)


def _as_float(value: object, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"span event field {key!r} must be a number")
    return float(value)


@dataclass(frozen=True)
class SpanEvent:
    """One completed span: a named phase with its measured costs.

    Attributes:
        name: phase name (``restructure``, ``divide``, ``solve``, ...).
        span_id: unique id of the span within its tracer (1-based).
        parent_id: ``span_id`` of the enclosing span, or ``None`` at the
            top level.
        depth: nesting depth (0 for a top-level span).
        sequence: completion order (0-based); parents complete *after*
            their children, so sorting by ``sequence`` is exit order.
        elapsed_seconds: wall-clock time between enter and exit.
        io: I/O charged between enter and exit (children included).
        attributes: free-form span attributes (JSON-compatible values).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    sequence: int
    elapsed_seconds: float
    io: IOSnapshot
    attributes: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dict (the JSONL event schema, one per line)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "sequence": self.sequence,
            "elapsed_seconds": self.elapsed_seconds,
            "reads": self.io.reads,
            "writes": self.io.writes,
            "retries": self.io.retries,
            "faults": self.io.faults,
            "checksum_failures": self.io.checksum_failures,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SpanEvent":
        """Rebuild an event from :meth:`to_dict` output (JSONL ingest)."""
        parent = data.get("parent_id")
        attributes = data.get("attributes") or {}
        if not isinstance(attributes, Mapping):
            raise ValueError("span event 'attributes' must be a mapping")
        return cls(
            name=str(data["name"]),
            span_id=_as_int(data.get("span_id"), "span_id"),
            parent_id=None if parent is None else _as_int(parent, "parent_id"),
            depth=_as_int(data.get("depth"), "depth"),
            sequence=_as_int(data.get("sequence"), "sequence"),
            elapsed_seconds=_as_float(
                data.get("elapsed_seconds"), "elapsed_seconds"
            ),
            io=IOSnapshot(
                reads=_as_int(data.get("reads", 0), "reads"),
                writes=_as_int(data.get("writes", 0), "writes"),
                retries=_as_int(data.get("retries", 0), "retries"),
                faults=_as_int(data.get("faults", 0), "faults"),
                checksum_failures=_as_int(
                    data.get("checksum_failures", 0), "checksum_failures"
                ),
            ),
            attributes=dict(attributes),
        )
