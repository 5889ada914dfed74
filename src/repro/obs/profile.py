"""Aggregation and human-readable rendering of span events.

Two consumers:

* :func:`phase_totals` — per-phase totals over the *non-overlapping*
  phase spans (:data:`LEAF_PHASES`).  Because those spans tile a run's
  I/O exactly (asserted by the test suite), their read/write deltas sum
  to ``DFSResult.io.reads`` / ``.writes``; the bench harness reads its
  per-phase CSV columns from here.
* :func:`render_profile` — a flamegraph-style text tree: span paths
  (``run/part/restructure``) aggregated over calls, indented by depth,
  with wall-clock and I/O columns, optionally followed by a run's work
  counters (``RunResult.details``).  This is what ``repro dfs
  --profile`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple

from ..storage.io_stats import IOSnapshot
from .events import ZERO_IO, SpanEvent

#: The non-overlapping phase spans: no span in this set is ever nested
#: inside another one from the set, so their I/O deltas partition the
#: run's total charge.  ``sgraph``/``partition``/``cut-tree`` nest inside
#: ``divide`` and ``part`` wraps whole recursions — they attribute finer
#: detail but must not be double-counted into phase totals.  ``relax`` is
#: the BFS sibling of ``restructure``: one span per level-relaxation
#: pass over the edge file.
LEAF_PHASES: "frozenset[str]" = frozenset(
    {"restructure", "divide", "solve", "merge", "checkpoint", "relax"}
)


@dataclass
class PhaseTotal:
    """Accumulated cost of one phase name across all its spans."""

    calls: int = 0
    seconds: float = 0.0
    io: IOSnapshot = field(default_factory=lambda: ZERO_IO)

    def add(self, event: SpanEvent) -> None:
        self.calls += 1
        self.seconds += event.elapsed_seconds
        self.io = self.io + event.io


def phase_totals(
    events: Sequence[SpanEvent],
    phases: AbstractSet[str] = LEAF_PHASES,
) -> Dict[str, PhaseTotal]:
    """Total seconds/IO per phase name over the non-overlapping spans."""
    totals: Dict[str, PhaseTotal] = {}
    for event in events:
        if event.name not in phases:
            continue
        bucket = totals.get(event.name)
        if bucket is None:
            bucket = PhaseTotal()
            totals[event.name] = bucket
        bucket.add(event)
    return totals


def _span_paths(events: Sequence[SpanEvent]) -> List[Tuple[Tuple[str, ...], SpanEvent]]:
    """Pair each event with its name path from the span-tree root."""
    by_id: Dict[int, SpanEvent] = {event.span_id: event for event in events}
    paths: List[Tuple[Tuple[str, ...], SpanEvent]] = []
    for event in events:
        names: List[str] = [event.name]
        parent = event.parent_id
        hops = 0
        while parent is not None and hops < 10_000:
            ancestor = by_id.get(parent)
            if ancestor is None:
                break  # partial stream (e.g. filtered JSONL): root the path here
            names.append(ancestor.name)
            parent = ancestor.parent_id
            hops += 1
        names.reverse()
        paths.append((tuple(names), event))
    return paths


def render_profile(
    events: Sequence[SpanEvent],
    counters: Optional[Mapping[str, int]] = None,
) -> str:
    """Flamegraph-style text summary of a run's span events.

    Spans are grouped by their name *path* (so each ``restructure``
    under a deeper recursion aggregates separately from the top level's),
    indented by path depth, with call counts, wall-clock, and I/O deltas.
    ``counters`` (a run's ``details``: batches, rebuilds, division
    attempts, ...) are listed under the table, sorted by name.
    """
    if not events:
        return "profile: no span events recorded"
    aggregated: Dict[Tuple[str, ...], PhaseTotal] = {}
    first_seen: Dict[Tuple[str, ...], int] = {}
    for path, event in _span_paths(events):
        bucket = aggregated.get(path)
        if bucket is None:
            bucket = PhaseTotal()
            aggregated[path] = bucket
            first_seen[path] = len(first_seen)
        bucket.add(event)

    # Stable tree order: parents before children, then first-appearance.
    ordered = sorted(
        aggregated.items(),
        key=lambda item: _tree_sort_key(item[0], first_seen),
    )
    rows = [("phase", "calls", "seconds", "reads", "writes")]
    for path, total in ordered:
        label = "  " * (len(path) - 1) + path[-1]
        rows.append((
            label,
            str(total.calls),
            f"{total.seconds:.4f}",
            str(total.io.reads),
            str(total.io.writes),
        ))
    widths = [
        max(len(row[column]) for row in rows) for column in range(len(rows[0]))
    ]
    lines = ["profile (per span path; child time is included in parents):"]
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(
                cell.ljust(widths[0]) if column == 0 else cell.rjust(widths[column])
                for column, cell in enumerate(row)
            ).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    if counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name} = {counters[name]}")
    return "\n".join(lines)


def _tree_sort_key(
    path: Tuple[str, ...], first_seen: Dict[Tuple[str, ...], int]
) -> Tuple[Tuple[int, ...], int]:
    """Order paths so every prefix sorts before (and adjacent to) its
    descendants, with siblings in first-appearance order."""
    ranks = tuple(
        first_seen.get(path[: index + 1], len(first_seen))
        for index in range(len(path))
    )
    return ranks, len(path)
