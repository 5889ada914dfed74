"""Compare benchmark results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Files alternate parent, change, parent, change: pass them in pairs, each
pair measured back to back (alternate which side runs first).  A file is
the ``--out`` of one ``run.py`` invocation, or ``baseline.json``, whose
invocations all count for the side it stands on.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles and a verdict against the metric's
bound: ``within``, ``outside``, or ``unresolved`` when the parent's own
spread is wider than the bound and not every change run beats every
parent run.  With as many runs on each side, it also prints the share
of pairs the change won; ties count for neither side.  Exits 1 when
any metric is outside its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def invocations(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["invocations"] if "invocations" in data else [data]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of parent."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    p_low, p_mid, p_high = quartiles(parent)
    _, c_mid, _ = quartiles(change)
    wins_all = all(worsening(p, c, better) < 0 for p in parent for c in change)
    spread = (p_high - p_low) / abs(p_mid) if p_mid else 0.0
    if spread > bound and not wins_all:
        return "unresolved"
    return "within" if worsening(p_mid, c_mid, better) <= bound else "outside"


def win_rate(parent: Sequence[float], change: Sequence[float],
             better: str) -> Optional[str]:
    if len(parent) != len(change):
        return None
    wins = sum(worsening(p, c, better) < 0 for p, c in zip(parent, change))
    return f"{wins}/{len(parent)}"


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides: Tuple[List[Dict[str, Any]], List[Dict[str, Any]]] = ([], [])
    for position, path in enumerate(argv):
        sides[position % 2].extend(invocations(path))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    workloads = [w["name"] for w in benchmark["workloads"]]
    outside = 0
    print(f"parent runs {len(sides[0])}, change runs {len(sides[1])}")
    print("workload metric | parent q1 median q3 | change q1 median q3 | "
          "change vs parent | bound | verdict | change won")
    for workload in workloads:
        present = [[run["workloads"][workload] for run in side
                    if workload in run["workloads"]] for side in sides]
        if not all(present):
            continue
        for side, label in zip(present, ("parent", "change")):
            failed = sum(r["failed"] for r in side)
            attempted = sum(r["attempted"] for r in side)
            print(f"{workload} {label} failed {failed} of {attempted} traversals")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent = [r["e2e"][name] for r in present[0]]
            change = [r["e2e"][name] for r in present[1]]
            outcome = verdict(parent, change, metric["better"], metric["bound"])
            outside += outcome == "outside"
            p_low, p_mid, p_high = quartiles(parent)
            c_low, c_mid, c_high = quartiles(change)
            rate = win_rate(parent, change, metric["better"])
            delta = (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
            print(f"{workload} {name} | {p_low:.6g} {p_mid:.6g} {p_high:.6g} | "
                  f"{c_low:.6g} {c_mid:.6g} {c_high:.6g} | {delta:+.2%} | "
                  f"{metric['bound']:.0%} | {outcome} | {rate or '-'}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
