"""The run skeleton every runner shares: one pass cap with one wording,
one unbinding of the caller's tracer, one record of a Restructure pass."""

import pytest

from repro import DiskGraph, RunOptions, Tracer, semi_external_dfs
from repro.algorithms import divide_conquer, divide_star_dfs, divide_td_dfs
from repro.errors import ConvergenceError
from repro.graph import Digraph, random_graph
from repro.obs import MemorySink

ALGORITHM_NAMES = [
    "edge-by-edge", "edge-by-batch", "divide-star", "divide-td", "bfs",
]

#: Uncapped, every runner needs more than two passes on this graph at
#: ``M = 3n + 60``: edge-by-edge 18, edge-by-batch 14, Divide-Star and
#: Divide-TD 6 over all their levels, BFS 7.
NODES = 120
MEMORY = 3 * NODES + 60


def tight_graph(device):
    return DiskGraph.from_digraph(device, random_graph(NODES, 4, seed=3))


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_pass_cap_has_one_wording_and_unbinds(device, name):
    disk = tight_graph(device)
    sink = MemorySink()
    tracer = Tracer(sinks=[sink])
    with pytest.raises(ConvergenceError) as exc_info:
        semi_external_dfs(
            disk, MEMORY, algorithm=name,
            options=RunOptions(max_passes=2, tracer=tracer),
        )
    assert str(exc_info.value) == f"{name} did not converge within 2 passes"
    # the capped run left the caller's tracer unbound from the device
    with tracer.span("probe"):
        scanned = sum(1 for _ in disk.edge_file.scan())
    assert scanned == disk.edge_count
    assert sink.events[-1].name == "probe"
    assert sink.events[-1].io.reads == 0


@pytest.mark.parametrize("name", ["edge-by-edge", "edge-by-batch", "bfs"])
def test_a_zero_cap_still_runs_one_pass(device, name):
    # the cap is checked after a pass, so a first pass that changes
    # nothing converges whatever the cap
    disk = DiskGraph.from_digraph(device, Digraph(5))
    result = semi_external_dfs(
        disk, 3 * 5 + 10, algorithm=name, options=RunOptions(max_passes=0),
    )
    assert result.passes == 1


@pytest.mark.parametrize("runner", [divide_star_dfs, divide_td_dfs],
                         ids=lambda runner: runner.__name__)
def test_divide_conquer_counts_every_restructure_pass(
    device, monkeypatch, runner
):
    outcomes = []
    restructure = divide_conquer.restructure

    def spy(*args, **kwargs):
        outcome = restructure(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(divide_conquer, "restructure", spy)
    result = runner(tight_graph(device), MEMORY)
    assert result.divisions >= 1
    assert result.passes == len(outcomes)
    assert result.details["rebuilds"] == sum(o.rebuilds for o in outcomes)
    assert result.details["rebuilds"] > 0
    assert result.details["batches"] == sum(o.batches for o in outcomes)
