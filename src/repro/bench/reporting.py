"""Paper-shaped rendering of experiment series.

Each experiment renders two panels, matching the paper's figures:
``(a) Processing Time`` and ``(b) I/O``.  Rows are the sweep's x-values,
columns are the algorithms, cells are the measured values (``DNF`` when
the pass cap — the stand-in for the paper's 8-hour limit — was hit).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .harness import PHASE_COLUMNS, CellResult

#: Display names matching the paper's legends.
ALGORITHM_LABELS = {
    "edge-by-batch": "SEMI-DFS",
    "semi-dfs": "SEMI-DFS",
    "edge-by-edge": "EdgeByEdge",
    "divide-star": "Divide-Star",
    "divide-td": "Divide-TD",
}


def _panel(
    results: Sequence[CellResult],
    value_of,
    title: str,
    x_label: str,
    number_format: str,
) -> str:
    xs: List[object] = []
    algorithms: List[str] = []
    for cell in results:
        if cell.x not in xs:
            xs.append(cell.x)
        if cell.algorithm not in algorithms:
            algorithms.append(cell.algorithm)
    by_key: Dict[tuple, CellResult] = {
        (cell.x, cell.algorithm): cell for cell in results
    }
    headers = [x_label] + [ALGORITHM_LABELS.get(a, a) for a in algorithms]
    rows = []
    for x in xs:
        row = [str(x)]
        for algorithm in algorithms:
            cell = by_key.get((x, algorithm))
            if cell is None:
                row.append("-")
            elif cell.dnf:
                row.append("DNF")
            else:
                row.append(number_format.format(value_of(cell)))
        rows.append(row)
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def render_experiment(
    name: str,
    results: Sequence[CellResult],
    x_label: str,
) -> str:
    """Render both panels of one experiment, paper-figure style."""
    time_panel = _panel(
        results,
        lambda cell: cell.time_seconds,
        f"{name} (a) Processing Time (s)",
        x_label,
        "{:.2f}",
    )
    io_panel = _panel(
        results,
        lambda cell: cell.ios,
        f"{name} (b) # of I/Os (blocks)",
        x_label,
        "{:d}",
    )
    meta = _panel(
        results,
        lambda cell: cell.passes,
        f"{name} (aux) restructure passes",
        x_label,
        "{:d}",
    )
    return "\n\n".join([time_panel, io_panel, meta])


def render_csv(results: Sequence[CellResult]) -> str:
    """Machine-readable dump of a series.

    ``ios`` is the logical charge (identical under any survivable fault
    plan); ``retries``/``faults`` report what the resilience layer
    absorbed.  ``codec`` / ``compression_ratio`` / ``blocks_per_scan``
    describe the edge-block codec: which one wrote the cell's blocks,
    the raw/stored byte ratio it achieved, and how many sealed blocks
    one full input scan reads.  The trailing
    ``<phase>_seconds``/``<phase>_ios`` column pairs break the run down
    over the non-overlapping span phases (restructure/divide/solve/
    merge); zero for phases the algorithm never entered or when the cell
    ran untraced.
    """
    phase_headers = ",".join(
        f"{phase}_seconds,{phase}_ios" for phase in PHASE_COLUMNS
    )
    lines = [
        "x,algorithm,time_seconds,ios,passes,divisions,nodes,edges,"
        "retries,faults,dnf,kernel,codec,"
        f"compression_ratio,blocks_per_scan,{phase_headers}"
    ]
    for cell in results:
        phases = ",".join(
            f"{cell.phase_seconds.get(phase, 0.0):.4f},"
            f"{cell.phase_ios.get(phase, 0)}"
            for phase in PHASE_COLUMNS
        )
        lines.append(
            f"{cell.x},{cell.algorithm},{cell.time_seconds:.4f},{cell.ios},"
            f"{cell.passes},{cell.divisions},{cell.node_count},"
            f"{cell.edge_count},{cell.retries},{cell.faults},"
            f"{int(cell.dnf)},{cell.kernel},{cell.codec},"
            f"{cell.compression_ratio:.3f},{cell.blocks_per_scan},{phases}"
        )
    return "\n".join(lines)
