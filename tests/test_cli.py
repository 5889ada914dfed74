"""Tests for the command-line interface (driving main() directly)."""

import pytest

from repro.cli import main
from repro.graph import random_dag, write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = str(tmp_path / "graph.txt")
    main([
        "generate", "--kind", "power-law", "--nodes", "400", "--degree", "4",
        "--seed", "3", "--output", path,
    ])
    return path


class TestGenerate:
    def test_generate_power_law(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        assert main(["generate", "--kind", "power-law", "--nodes", "100",
                     "--output", path]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        with open(path) as handle:
            lines = [l for l in handle if not l.startswith("#")]
        assert len(lines) > 50

    def test_generate_dataset_standin(self, tmp_path):
        path = str(tmp_path / "tw.txt")
        assert main(["generate", "--kind", "twitter-2010", "--scale", "0.01",
                     "--output", path]) == 0

    def test_generate_unknown_kind(self, tmp_path, capsys):
        assert main(["generate", "--kind", "nope",
                     "--output", str(tmp_path / "x.txt")]) == 2
        assert "unknown kind" in capsys.readouterr().err


class TestDFS:
    def test_dfs_with_verify(self, graph_file, capsys):
        assert main(["dfs", "--input", graph_file, "--verify",
                     "--memory-ratio", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "VALID" in out
        assert "divide-td" in out

    def test_dfs_every_algorithm(self, graph_file):
        for algorithm in ["edge-by-batch", "divide-star", "divide-td"]:
            assert main(["dfs", "--input", graph_file, "--algorithm",
                         algorithm, "--memory-ratio", "0.3"]) == 0

    def test_dfs_order_output(self, graph_file, tmp_path):
        order_path = str(tmp_path / "order.txt")
        assert main(["dfs", "--input", graph_file, "--output", order_path,
                     "--memory-ratio", "0.3"]) == 0
        with open(order_path) as handle:
            order = [int(line) for line in handle]
        assert sorted(order) == list(range(400))

    def test_dfs_explicit_memory(self, graph_file):
        assert main(["dfs", "--input", graph_file, "--memory", "3000"]) == 0

    def test_dfs_insufficient_memory_reports_error(self, graph_file, capsys):
        assert main(["dfs", "--input", graph_file, "--memory", "100"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_dfs_workers_flag_is_gone(self, graph_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dfs", "--input", graph_file, "--algorithm",
                  "divide-star", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_dfs_start_node(self, graph_file, capsys):
        assert main(["dfs", "--input", graph_file, "--start", "17",
                     "--memory-ratio", "0.3"]) == 0
        assert "DFS order: 17" in capsys.readouterr().out

    def test_dfs_trace_out_writes_valid_jsonl(self, graph_file, tmp_path,
                                              capsys):
        import json

        from repro.obs import SpanEvent

        trace_path = tmp_path / "events.jsonl"
        assert main(["dfs", "--input", graph_file, "--memory-ratio", "0.3",
                     "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        with open(trace_path) as handle:
            events = [SpanEvent.from_dict(json.loads(line)) for line in handle]
        assert events, "trace file is empty"
        assert {"restructure"} <= {event.name for event in events}
        assert f"trace: {len(events)} span events" in out

    def test_dfs_profile_prints_phase_table(self, graph_file, capsys):
        assert main(["dfs", "--input", graph_file, "--memory-ratio", "0.3",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile (per span path" in out
        assert "restructure" in out


class TestBFS:
    def test_bfs_summary_line(self, graph_file, capsys):
        assert main(["bfs", "--input", graph_file,
                     "--memory-ratio", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "bfs:" in out
        assert "passes=" in out
        assert "depth=" in out
        assert "reached=" in out
        assert "levels:" in out

    def test_bfs_levels_output_file(self, graph_file, tmp_path, capsys):
        levels_path = str(tmp_path / "levels.txt")
        assert main(["bfs", "--input", graph_file, "--output", levels_path,
                     "--memory-ratio", "0.3"]) == 0
        assert "BFS levels written" in capsys.readouterr().out
        with open(levels_path) as handle:
            rows = [line.split() for line in handle]
        assert len(rows) == 400
        assert rows[0] == ["0", "0", "-1"]  # start: level 0, parent γ → -1
        for node, (shown_node, level, parent) in enumerate(rows):
            assert int(shown_node) == node
            assert int(level) >= -1 and int(parent) >= -1

    def test_bfs_start_node(self, graph_file, capsys):
        assert main(["bfs", "--input", graph_file, "--start", "17",
                     "--memory-ratio", "0.3"]) == 0
        assert "depth=" in capsys.readouterr().out

    def test_bfs_insufficient_memory_reports_error(self, graph_file, capsys):
        assert main(["bfs", "--input", graph_file, "--memory", "100"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bfs_profile_prints_relax_phase(self, graph_file, capsys):
        assert main(["bfs", "--input", graph_file, "--memory-ratio", "0.3",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile (per span path" in out
        assert "relax" in out


class TestApps:
    def test_toposort(self, tmp_path, capsys):
        path = str(tmp_path / "dag.txt")
        write_edge_list(path, random_dag(200, 600, seed=1).edges())
        out_path = str(tmp_path / "order.txt")
        assert main(["toposort", "--input", path, "--output", out_path]) == 0
        with open(out_path) as handle:
            order = [int(line) for line in handle]
        assert sorted(order) == list(range(200))

    def test_toposort_cycle_fails(self, graph_file, capsys):
        assert main(["toposort", "--input", graph_file]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_scc(self, graph_file, capsys):
        assert main(["scc", "--input", graph_file, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "strongly connected components" in out


class TestBench:
    def test_unknown_experiment(self, capsys):
        assert main(["bench", "--experiment", "exp99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_exp_table_rendered(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.004")
        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "5")
        assert main(["bench", "--experiment", "exp3:power-law"]) == 0
        out = capsys.readouterr().out
        assert "Processing Time" in out
        assert "# of I/Os" in out
        assert "SEMI-DFS" in out and "Divide-TD" in out


class TestCompare:
    def test_compare_table(self, graph_file, capsys):
        assert main(["compare", "--input", graph_file, "--memory-ratio", "0.3",
                     "--timeout", "60"]) == 0
        out = capsys.readouterr().out
        assert "edge-by-batch" in out
        assert "divide-star" in out
        assert "divide-td" in out
        assert "bfs" in out
        assert "passes" in out

    def test_compare_includes_edge_by_edge_on_request(self, graph_file, capsys):
        assert main(["compare", "--input", graph_file, "--memory-ratio", "0.3",
                     "--timeout", "60", "--include-edge-by-edge"]) == 0
        assert "edge-by-edge" in capsys.readouterr().out

    def test_compare_reports_dnf(self, graph_file, capsys):
        assert main(["compare", "--input", graph_file, "--memory-ratio", "0.05",
                     "--timeout", "0.001"]) == 0
        assert "DNF" in capsys.readouterr().out


class TestPlanarity:
    def test_planar_graph(self, tmp_path, capsys):
        from repro.graph import grid_graph

        path = str(tmp_path / "grid.txt")
        write_edge_list(path, grid_graph(5, 5).edges())
        assert main(["planarity", "--input", path]) == 0
        assert "planar" in capsys.readouterr().out

    def test_nonplanar_graph(self, tmp_path, capsys):
        path = str(tmp_path / "k5.txt")
        write_edge_list(path, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert main(["planarity", "--input", path]) == 3
        assert "NOT planar" in capsys.readouterr().out

    def test_dense_graph_decided_by_euler(self, tmp_path, capsys):
        edges = [(u, v) for u in range(12) for v in range(12) if u != v]
        path = str(tmp_path / "dense.txt")
        write_edge_list(path, edges)
        assert main(["planarity", "--input", path]) == 3
        assert "Euler bound" in capsys.readouterr().out
