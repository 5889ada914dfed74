"""Project context: per-function summaries and cross-function taint."""

from __future__ import annotations

import textwrap

from repro.analysis.callgraph import (
    build_project_context,
    resolve_summary,
    single_file_context,
    taint_states,
)


def context_of(source: str, relpath: str = "repro/algorithms/mod.py"):
    return single_file_context(relpath, textwrap.dedent(source))


class TestSummaries:
    def test_source_call_summarized_as_returning_kind(self):
        context = context_of("""\
        def stamp():
            return time.time()
        """)
        summary = resolve_summary(context, "stamp")
        assert summary is not None
        assert "wallclock" in summary.returns

    def test_transitive_summary_through_chain(self):
        context = context_of("""\
        def stamp():
            return time.time()

        def chain():
            return stamp()
        """)
        summary = resolve_summary(context, "chain")
        assert summary is not None
        assert "wallclock" in summary.returns

    def test_passthrough_positions_recorded(self):
        context = context_of("""\
        def identity(value):
            return value
        """)
        summary = resolve_summary(context, "identity")
        assert summary is not None
        assert 0 in summary.passthrough

    def test_resource_constructor_marks_returns_resource(self):
        context = context_of("""\
        def make_writer(device, keys):
            return PartitionWriter(device, keys)
        """)
        summary = resolve_summary(context, "make_writer")
        assert summary is not None
        assert summary.returns_resource

    def test_scan_kind_stripped_from_returns(self):
        # A callee's return is an aggregate the callee accounts for;
        # scan taint is intraprocedural by design (see SEX211).
        context = context_of("""\
        def load(edge_file):
            total = 0
            for u, v in edge_file.scan():
                total = total + v
            return total
        """)
        summary = resolve_summary(context, "load")
        assert summary is not None
        assert "scan" not in summary.returns


class TestCrossFileContext:
    def test_summaries_cross_file_boundaries(self):
        context = build_project_context({
            "repro/algorithms/a.py": textwrap.dedent("""\
            def stamp():
                return time.time()
            """),
            "repro/algorithms/b.py": textwrap.dedent("""\
            def use():
                return stamp()
            """),
        })
        summary = resolve_summary(context, "use")
        assert summary is not None
        assert "wallclock" in summary.returns

    def test_functions_indexed_by_relpath(self):
        context = build_project_context({
            "repro/algorithms/a.py": "def f():\n    pass\n",
            "repro/algorithms/b.py": "def g():\n    pass\n",
        })
        names_a = [info.qualname for info in context.functions["repro/algorithms/a.py"]]
        assert names_a == ["f"]


class TestTaintStatesMemo:
    def test_solve_is_memoized_per_function(self):
        context = context_of("""\
        def f():
            t = time.time()
            return t
        """)
        info = context.functions["repro/algorithms/mod.py"][0]
        first = taint_states(info, context)
        second = taint_states(info, context)
        assert first is second
