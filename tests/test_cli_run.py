"""``repro dfs`` and ``repro bfs`` share one command body: the summary
line and the ``--output`` format follow the result type, not the command."""

import pytest

from repro.cli import main
from repro.graph import random_graph, write_edge_list
from repro.storage.faults import FAULT_SEED_ENV_VAR


@pytest.fixture
def graph_file(tmp_path):
    path = str(tmp_path / "graph.txt")
    write_edge_list(path, random_graph(120, 3, seed=4).edges())
    return path


def run(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()


def without_time(line):
    """A summary line with its wall-clock field dropped."""
    return " ".join(part for part in line.split() if not part.startswith("time="))


def test_dfs_with_bfs_prints_what_bfs_prints(graph_file, tmp_path, capsys,
                                             monkeypatch):
    monkeypatch.delenv(FAULT_SEED_ENV_VAR, raising=False)
    summaries, outputs = [], []
    for command in (["bfs"], ["dfs", "--algorithm", "bfs"]):
        path = str(tmp_path / f"{command[0]}.txt")
        lines = run(capsys, command + ["--input", graph_file,
                                       "--output", path])
        assert lines[1].startswith("bfs: ")
        assert "reached=" in lines[1] and "divisions=" not in lines[1]
        assert lines[2] == f"BFS levels written to {path}"
        summaries.append(without_time(lines[1]))
        with open(path) as handle:
            outputs.append(handle.read())
    assert summaries[0] == summaries[1]
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0] == "0 0 -1"


def test_dfs_summary_keeps_its_shape(graph_file, capsys, monkeypatch):
    monkeypatch.delenv(FAULT_SEED_ENV_VAR, raising=False)
    lines = run(capsys, ["dfs", "--input", graph_file,
                         "--algorithm", "divide-star"])
    assert lines[1].startswith("divide-star: ")
    assert "divisions=" in lines[1] and "reached=" not in lines[1]
    assert lines[2].startswith("DFS order: ")


@pytest.mark.parametrize("command", ["dfs", "bfs"])
def test_traversals_print_the_active_fault_plan(command, graph_file, capsys):
    lines = run(capsys, [command, "--input", graph_file,
                         "--fault-seed", "3", "--fault-rate", "0.02"])
    plan = [line for line in lines if line.startswith("fault plan: ")]
    assert len(plan) == 1
    assert plan[0].startswith("fault plan: seed=3 rate=0.02 injected=")
