"""CLI behaviour: exit codes, text/JSON output, --list-rules."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import REPORT_SCHEMA_VERSION, known_codes
from repro.analysis.cli import main


@pytest.fixture()
def clean_tree(tmp_path):
    pkg = tmp_path / "repro" / "apps"
    pkg.mkdir(parents=True)
    (pkg / "fine.py").write_text("def identity(x):\n    return x\n")
    return tmp_path


@pytest.fixture()
def dirty_tree(tmp_path):
    pkg = tmp_path / "repro" / "algorithms"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        textwrap.dedent(
            """\
            edges = list(edge_file.scan())
            handle = open('raw.bin', 'rb')
            """
        )
    )
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_tree, capsys):
        assert main([str(clean_tree)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_violations_exit_one(self, dirty_tree, capsys):
        assert main([str(dirty_tree)]) == 1
        out = capsys.readouterr().out
        assert "SEX201" in out
        assert "SEX101" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_no_paths_is_an_error(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "flag", [["--cache-dir", "cache"], ["--no-cache"]],
        ids=["cache-dir", "no-cache"],
    )
    def test_removed_cache_flags_rejected(self, clean_tree, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(clean_tree), *flag])
        assert excinfo.value.code == 2


class TestTextOutput:
    def test_diagnostics_carry_file_line_column(self, dirty_tree, capsys):
        main([str(dirty_tree)])
        out = capsys.readouterr().out
        assert "bad.py:1:9: SEX201" in out
        assert "bad.py:2:10: SEX101" in out


class TestJsonOutput:
    def test_schema_keys(self, dirty_tree, capsys):
        exit_code = main([str(dirty_tree), "--format", "json"])
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == REPORT_SCHEMA_VERSION
        assert payload["tool"] == "repro.analysis"
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["violation_count"] == 2
        assert payload["counts"] == {"SEX101": 1, "SEX201": 1}
        first = payload["violations"][0]
        assert set(first) == {"path", "line", "column", "code", "message"}

    def test_clean_json_report(self, clean_tree, capsys):
        assert main([str(clean_tree), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []

    def test_waivers_reported(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "apps"
        pkg.mkdir(parents=True)
        (pkg / "waived.py").write_text(
            "h = open('out.txt', 'w')  # repro: allow[SEX101] report file\n"
        )
        assert main([str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["waivers"]) == 1
        record = payload["waivers"][0]
        assert record["codes"] == ["SEX101"]
        assert record["used"] is True


class TestListRules:
    def test_lists_every_registered_code(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in known_codes():
            assert code in out


class TestSarifOutput:
    def test_sarif_envelope_and_results(self, dirty_tree, capsys):
        assert main([str(dirty_tree), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        assert {r["ruleId"] for r in run["results"]} >= {"SEX201", "SEX101"}

    def test_sarif_clean_run_still_lists_rules(self, clean_tree, capsys):
        assert main([str(clean_tree), "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        run = doc["runs"][0]
        assert run["results"] == []
        listed = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert listed == set(known_codes())


class TestDeterminism:
    def test_reruns_byte_identical(self, dirty_tree, capsys):
        assert main([str(dirty_tree), "--format", "json"]) == 1
        first = capsys.readouterr().out
        assert main([str(dirty_tree), "--format", "json"]) == 1
        assert capsys.readouterr().out == first
