"""Smoke tests: example scripts must run end to end.

CI's example job runs every example.  Here run quickstart (all four
algorithms), the toposort pipeline, and the resilience audit, the one
example that reads span events from a sink it attaches; the web crawl
and social reachability examples run only in CI.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.slow
def test_quickstart_runs():
    out = run_example("quickstart.py")
    assert "divide-td" in out
    assert "True" in out  # validity column
    assert "DFS order starting at node 0" in out


@pytest.mark.slow
def test_toposort_pipeline_runs():
    out = run_example("toposort_pipeline.py")
    assert "dependency violations: 0" in out
    assert "cycle correctly rejected" in out


def test_network_resilience_runs():
    out = run_example("network_resilience.py")
    assert "bridges (single points of failure): 7" in out
    # a part's size counts its nodes and its edges
    assert "parts (|V_i|+|E_i|: " in out
    table, counters = out[out.index("profile (per span path"):].split("\n\n")
    calls = {line.split()[0]: line.split()[1] for line in table.splitlines()[3:]}
    assert {"restructure", "divide", "sgraph", "merge"} <= set(calls)
    assert calls["divide"] == "1"  # the one division the summary reports
    assert "  division_attempts = 1" in counters.splitlines()
