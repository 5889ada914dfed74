"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
import types
from types import SimpleNamespace
from typing import Iterator, List

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
from repro.api import semi_external_dfs  # noqa: E402
from repro.core.tree import SpanningTree  # noqa: E402


@pytest.fixture
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def clock(monkeypatch):
    """A perf_counter that advances one second per reading."""
    readings = iter(range(10_000))
    monkeypatch.setattr(layers, "clock", lambda: float(next(readings)))


@pytest.fixture
def fake_module(monkeypatch):
    """A module with a generator and a function, as a layer would expose."""
    module = types.ModuleType("fake_layer")

    def leaf(x: int) -> int:
        return x

    def scan(count: int) -> Iterator[int]:
        for item in range(count):
            yield module.leaf(item)

    module.leaf = leaf
    module.scan = scan
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module


FAKE_TARGETS = (
    layers.Target("fake.scan", (("fake_layer", "scan"),), ("run_s",),
                  ("td-random",), generator=True),
    layers.Target("fake.leaf", (("fake_layer", "leaf"),), ("run_s",), ("td-random",)),
)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans(clock):
    recorder = layers.SpanRecorder()
    with recorder.span("root"):          # opens at 0
        with recorder.span("a"):         # 1 .. 2
            pass
        with recorder.span("b"):         # 3 .. 6
            with recorder.span("a"):     # 4 .. 5
                pass
    # root closes at 7
    totals = recorder.totals()
    assert totals["root"] == (7.0, 7.0 - 1.0 - 3.0)
    assert totals["a"] == (2.0, 2.0)
    assert totals["b"] == (3.0, 2.0)
    assert recorder.counts == {"root": 1, "a": 2, "b": 1}


def test_generator_spans_time_each_next(clock, fake_module):
    recorder = layers.SpanRecorder()
    with layers.installed(recorder, FAKE_TARGETS) as absent:
        with recorder.span(layers.ROOT):
            assert list(fake_module.scan(2)) == [0, 1]
    assert absent == []
    names = [recorder.names[i] for i in recorder.name_col]
    # root, then per next: a scan span holding a leaf span, and one last
    # scan span for the StopIteration.
    assert names == [layers.ROOT, "fake.scan", "fake.leaf",
                     "fake.scan", "fake.leaf", "fake.scan"]
    parents = list(recorder.parent_col)
    assert parents == [-1, 0, 1, 0, 3, 0]
    values = layers.layer_values(recorder, FAKE_TARGETS)
    assert values["fake.scan.calls"] == 1  # one scan, three nexts
    assert values["fake.leaf.calls"] == 2
    assert values["fake.scan.s"] == 3 + 3 + 1
    assert values["fake.scan.self_s"] == 2 + 2 + 1
    assert values["fake.leaf.self_s"] == 2
    assert values["api.residual_s"] == values[f"{layers.ROOT}.s"] - 7


def test_generator_closed_early_closes_the_inner_generator(fake_module):
    closed: List[bool] = []

    def scan(count: int) -> Iterator[int]:
        try:
            yield from range(count)
        finally:
            closed.append(True)

    fake_module.scan = scan
    recorder = layers.SpanRecorder()
    with layers.installed(recorder, FAKE_TARGETS):
        iterator = fake_module.scan(5)
        next(iterator)
        iterator.close()
    assert closed == [True]
    assert recorder.stack == []


def test_shares_divide_self_time_by_the_root():
    values = {f"{layers.ROOT}.s": 4.0}
    for target in layers.TARGETS:
        values[f"{target.name}.self_s"] = 1.0
    layers.add_shares(values)
    assert values["sgraph.s_edge_endpoints.self_share"] == 0.25


# ----------------------------------------------------------------------
# installing and restoring
# ----------------------------------------------------------------------
def _site_values():
    found = {}
    for target in layers.TARGETS:
        for site in target.sites:
            owner, attribute = layers._resolve(*site)
            found[site] = vars(owner).get(attribute)
    return found


@pytest.fixture(scope="module")
def small_graph(tmp_path_factory):
    workload = measure.WORKLOADS["td-random"]
    return measure.store_graph(workload, 120, 7, str(tmp_path_factory.mktemp("g")))


@pytest.fixture
def run(small_graph):
    return measure.Run(measure.WORKLOADS["td-random"], [small_graph], measure.HostSpeed())


def test_originals_restored_after_a_traced_run(small_graph, run):
    before = _site_values()
    recorder = layers.SpanRecorder()
    run.traverse(small_graph, recorder)
    assert run.failed == 0, run.errors
    assert _site_values() == before
    values = layers.layer_values(recorder)
    assert values["division.divide_with_cut.calls"] >= 1
    assert 0 < values["api.residual_s"] < values[f"{layers.ROOT}.s"]
    # Every block I/O passes a wrapped device call; each scan ends with
    # one uncharged end-of-file read.
    scans = values["edge_file.scan_columns.calls"] + values["edge_file.scan_blocks.calls"]
    assert (values["block_device.read_block.calls"]
            + values["block_device.write_block.calls"]) == small_graph.ios + scans


def test_originals_restored_when_the_traced_run_raises(small_graph):
    before = _site_values()
    with pytest.raises(RuntimeError):
        with layers.installed(layers.SpanRecorder()):
            assert _site_values() != before
            raise RuntimeError("traversal failed")
    assert _site_values() == before


def test_a_failing_traversal_is_counted_and_wrappers_removed(small_graph, run,
                                                            monkeypatch):
    before = _site_values()

    def explode(*args, **kwargs):
        raise ValueError("boom")

    division = importlib.import_module("repro.algorithms.division")
    monkeypatch.setattr(division, "s_edge_endpoints", explode)
    before[("repro.algorithms.division", "s_edge_endpoints")] = explode
    run.traverse(small_graph, layers.SpanRecorder())
    assert run.failed == 1 and "boom" in run.errors[0]
    assert _site_values() == before


def test_host_speed_factor_is_reference_over_median_probe():
    speed = measure.HostSpeed()
    speed.samples = [0.001, 0.004, 0.002]
    assert speed.factor() == speed.REFERENCE_S / 0.002
    speed.sample()
    assert len(speed.samples) == 1 and speed.factor() > 0
    assert speed.samples == []


def test_missing_target_is_reported_absent(fake_module):
    missing = layers.Target(
        "gone.pushup",
        (("repro.algorithms.sgraph", "no_such_function"),
         ("repro.no_such_module", "pushup")),
        ("run_s",), ("td-random",),
    )
    recorder = layers.SpanRecorder()
    with layers.installed(recorder, FAKE_TARGETS + (missing,)) as absent:
        fake_module.leaf(1)
    assert absent == ["gone.pushup"]
    values = layers.layer_values(recorder, FAKE_TARGETS + (missing,))
    assert values["gone.pushup.calls"] == 0
    assert values["gone.pushup.s"] == 0.0
    assert values["fake.leaf.calls"] == 1


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------
def _traverse(workload, item):
    return semi_external_dfs(item.graph, item.memory, algorithm=workload.algorithm)


def test_output_check_accepts_a_real_dfs_and_rejects_a_corrupted_tree(small_graph):
    workload = measure.WORKLOADS["td-random"]
    item = measure.Graph(small_graph.seed, small_graph.graph, small_graph.memory)
    result = _traverse(workload, item)
    assert measure.check_output(workload, item, result) == []
    assert measure.check_output(workload, item, _traverse(workload, item)) == []

    nodes = range(item.graph.node_count)
    star = SpanningTree.initial_star(nodes, item.graph.node_count)
    corrupted = SimpleNamespace(tree=star, order=list(nodes), io=result.io)
    problems = measure.check_output(workload, item, corrupted)
    assert any("forward-cross" in p for p in problems)
    assert any("order differs" in p for p in problems)


def test_output_check_rejects_wrong_bfs_levels(tmp_path):
    workload = measure.WORKLOADS["bfs-varint"]
    item = measure.store_graph(workload, 150, 3, str(tmp_path))
    result = _traverse(workload, item)
    assert measure.check_output(workload, item, result) == []
    reached = next(v for v, level in enumerate(result.levels) if level)
    result.levels[reached] += 1
    problems = measure.check_output(workload, item, result)
    assert problems == ["BFS levels differ from an in-memory BFS"]


# ----------------------------------------------------------------------
# the command and BENCHMARK.json
# ----------------------------------------------------------------------
def test_smoke_run_prints_every_benchmark_metric(benchmark_json, tmp_path):
    out = tmp_path / "result.json"
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "0.05",
         "--seconds", "0", "--seed", "3", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    printed = {tuple(line.split()[:2]) for line in lines[:-1]}
    names = [m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    for workload in benchmark_json["workloads"]:
        for name in names:
            assert (workload["name"], name) in printed
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert len(final["metrics"]) == len(names) * len(benchmark_json["workloads"])
    saved = json.loads(out.read_text())
    assert set(saved["workloads"]) == {w["name"] for w in benchmark_json["workloads"]}
    assert saved["host"]["nproc"] >= 1


def test_benchmark_json_follows_the_contract(benchmark_json):
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(benchmark_json) == {"command", "paths", "run_seconds", "workloads",
                                   "end_to_end", "per_layer"}
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert 1 <= benchmark_json["run_seconds"] <= 60
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    everything = (benchmark_json["workloads"] + benchmark_json["end_to_end"]
                  + benchmark_json["per_layer"])
    assert len({m["name"] for m in everything}) == len(everything)
    for item in everything:
        assert name.match(item["name"]), item
    for workload in benchmark_json["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in benchmark_json["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert unit.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in benchmark_json["end_to_end"])
    for metric in benchmark_json["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and unit.match(metric["unit"])


def test_every_layer_metric_maps_to_an_e2e_metric_and_workload(benchmark_json):
    e2e = {m["name"] for m in benchmark_json["end_to_end"]}
    workloads = {w["name"] for w in benchmark_json["workloads"]}
    assert workloads == set(measure.WORKLOADS) == set(layers.ALL_WORKLOADS)
    known = layers.layer_metrics()
    for metric in benchmark_json["per_layer"]:
        unit, predicts, on = known[metric["name"]]
        assert metric["unit"] == unit
        assert predicts and set(predicts) <= e2e
        assert on and set(on) <= workloads


def test_compare_verdicts_and_win_rate():
    parent = [10.0, 10.2, 9.8, 10.1]
    assert compare.verdict(parent, [10.5, 10.4, 10.6, 10.3], "lower", 0.1) == "within"
    assert compare.verdict(parent, [12.0, 12.5, 11.9, 12.2], "lower", 0.1) == "outside"
    assert compare.verdict(parent, [9.0, 9.1, 8.9, 9.2], "higher", 0.05) == "outside"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(noisy, [14.0, 15.0, 16.0, 17.0], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [1.0, 2.0, 3.0, 4.0], "lower", 0.1) == "within"
    assert compare.win_rate(parent, [9.0, 10.2, 9.7, 11.0], "lower") == "2/4"
    assert compare.win_rate(parent, [9.0], "lower") is None
