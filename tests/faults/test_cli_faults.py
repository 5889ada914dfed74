"""Every CLI graph command applies the fault flags it accepts.

An unsurvivable plan (``--fault-rate 0.95``) must fail the command with
the device's typed storage error, exactly as ``repro dfs`` does; a
survivable one (``--fault-rate 0.02``) must change no result.
"""

import os
import re

import pytest

from repro.cli import main
from repro.graph import grid_graph, random_dag, random_graph, write_edge_list
from repro.storage.faults import FAULT_SEED_ENV_VAR

COMMANDS = ["compare", "toposort", "scc", "planarity", "publish"]

UNSURVIVABLE = ["--fault-seed", "3", "--fault-rate", "0.95"]
SURVIVABLE = ["--fault-seed", "3", "--fault-rate", "0.02"]


@pytest.fixture
def inputs(tmp_path):
    """One input file per command: a DAG for toposort, a grid (loaded by
    the left-right test) for planarity, a random graph for the rest."""
    paths = {}
    for kind, edges in (
        ("random", random_graph(200, 3, seed=5).edges()),
        ("dag", random_dag(200, 600, seed=5).edges()),
        ("grid", grid_graph(8, 8).edges()),
    ):
        paths[kind] = str(tmp_path / f"{kind}.txt")
        write_edge_list(paths[kind], edges)
    return paths


def command_line(command, inputs, out_dir):
    """The argv for ``command`` writing its results under ``out_dir``;
    small blocks give the fault plan many transfers to hit."""
    if command == "toposort":
        argv = ["toposort", "--input", inputs["dag"],
                "--output", os.path.join(out_dir, "order.txt")]
    elif command == "planarity":
        argv = ["planarity", "--input", inputs["grid"]]
    elif command == "publish":
        argv = ["publish", "--input", inputs["random"],
                "--store", os.path.join(out_dir, "store"), "--name", "g"]
    else:
        argv = [command, "--input", inputs["random"], "--memory-ratio", "0.3"]
    return argv + ["--block-size", "16"]


def observed(out, out_dir):
    """What a run shows: stdout without timings or paths, plus its files."""
    text = re.sub(r"\d+\.\d+s", "<time>", out).replace(out_dir, "<out>")
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, out_dir)] = handle.read()
    return text, files


@pytest.mark.parametrize("command", COMMANDS)
def test_unsurvivable_plan_fails_the_command(command, inputs, tmp_path,
                                             capsys):
    argv = command_line(command, inputs, str(tmp_path))
    assert main(argv + UNSURVIVABLE) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "write failed after 5 attempts" in err


@pytest.mark.parametrize("command", COMMANDS)
def test_survivable_plan_changes_no_result(command, inputs, tmp_path,
                                           capsys, monkeypatch):
    monkeypatch.delenv(FAULT_SEED_ENV_VAR, raising=False)
    runs = []
    for name, flags in (("clean", []), ("faulty", SURVIVABLE)):
        out_dir = str(tmp_path / name)
        os.mkdir(out_dir)
        code = main(command_line(command, inputs, out_dir) + flags)
        runs.append((code, observed(capsys.readouterr().out, out_dir)))
    (clean_code, clean), (faulty_code, faulty) = runs
    assert clean_code == faulty_code == 0
    assert faulty == clean
