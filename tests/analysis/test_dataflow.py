"""The forward worklist solver, through the taint analysis."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import ENTRY, EXIT, build_cfg
from repro.analysis.dataflow import (
    CallSummary,
    TaintAnalysis,
    TaintConfig,
    dotted_name,
    solve_forward,
)

WALLCLOCK = TaintConfig(
    call_sources={"time.time": frozenset({"wallclock"})},
)


def solve(source: str, analysis):
    func = ast.parse(textwrap.dedent(source)).body[0]
    cfg = build_cfg(func)
    return cfg, solve_forward(cfg, analysis)


def env_at_exit(cfg, states):
    """The joined state entering EXIT's lone predecessor statement."""
    sources = [src for src, _ in cfg.pred[EXIT]]
    assert len(sources) == 1, "fixture must have a single exit statement"
    return states[sources[0]]


class TestTaintPropagation:
    def test_source_call_taints_binding(self):
        cfg, states = solve("""\
        def f():
            t = time.time()
            return t
        """, TaintAnalysis(WALLCLOCK))
        env = env_at_exit(cfg, states)
        assert "wallclock" in env.get("t", frozenset())

    def test_taint_flows_through_arithmetic(self):
        cfg, states = solve("""\
        def f():
            t = time.time()
            delta = t - 5
            return delta
        """, TaintAnalysis(WALLCLOCK))
        env = env_at_exit(cfg, states)
        assert "wallclock" in env.get("delta", frozenset())

    def test_branch_join_is_union(self):
        cfg, states = solve("""\
        def f(p):
            if p:
                x = time.time()
            else:
                x = 0
            return x
        """, TaintAnalysis(WALLCLOCK))
        env = env_at_exit(cfg, states)
        assert "wallclock" in env.get("x", frozenset())

    def test_clean_rebind_clears_taint(self):
        cfg, states = solve("""\
        def f():
            x = time.time()
            x = 0
            return x
        """, TaintAnalysis(WALLCLOCK))
        env = env_at_exit(cfg, states)
        assert env.get("x", frozenset()) == frozenset()

    def test_sanitizer_launders(self):
        config = TaintConfig(
            call_sources={"time.time": frozenset({"wallclock"})},
        )
        cfg, states = solve("""\
        def f(items):
            x = sorted(items, key=time.time())
            return x
        """, TaintAnalysis(config))
        env = env_at_exit(cfg, states)
        assert env.get("x", frozenset()) == frozenset()

    def test_unknown_call_passes_argument_taint(self):
        cfg, states = solve("""\
        def f():
            t = time.time()
            y = helper(t)
            return y
        """, TaintAnalysis(WALLCLOCK))
        env = env_at_exit(cfg, states)
        assert "wallclock" in env.get("y", frozenset())

    def test_summary_overrides_unknown_call(self):
        config = TaintConfig(
            call_sources={"time.time": frozenset({"wallclock"})},
            summaries={
                "helper": CallSummary(
                    returns=frozenset(), passthrough=frozenset(),
                ),
            },
        )
        cfg, states = solve("""\
        def f():
            t = time.time()
            y = helper(t)
            return y
        """, TaintAnalysis(config))
        env = env_at_exit(cfg, states)
        assert env.get("y", frozenset()) == frozenset()


class TestSetIterationTaint:
    def test_for_over_set_literal_marks_target(self):
        config = TaintConfig(set_iteration=True)
        cfg, states = solve("""\
        def f():
            order = None
            for node in {1, 2, 3}:
                order = node
            return order
        """, TaintAnalysis(config))
        env = env_at_exit(cfg, states)
        assert "setiter" in env.get("order", frozenset())

    def test_set_typed_variable_tracked_by_summary_taint(self):
        # Plain TaintAnalysis only sees literal sets; SummaryTaint
        # deposits the "settype" kind on set-building assignments so
        # iteration over the *variable* is caught too.
        from repro.analysis.callgraph import SummaryTaint

        config = TaintConfig(set_iteration=True)
        cfg, states = solve("""\
        def f(items):
            seen = set(items)
            order = None
            for node in seen:
                order = node
            return order
        """, SummaryTaint(config))
        env = env_at_exit(cfg, states)
        assert "setiter" in env.get("order", frozenset())

    def test_sorted_set_is_clean(self):
        config = TaintConfig(set_iteration=True)
        cfg, states = solve("""\
        def f():
            seen = {1, 2, 3}
            order = None
            for node in sorted(seen):
                order = node
            return order
        """, TaintAnalysis(config))
        env = env_at_exit(cfg, states)
        assert "setiter" not in env.get("order", frozenset())


class TestHelpers:
    def test_dotted_name(self):
        expr = ast.parse("time.monotonic", mode="eval").body
        assert dotted_name(expr) == "time.monotonic"
        assert dotted_name(ast.parse("x", mode="eval").body) == "x"

    def test_call_summary_merge_unions(self):
        left = CallSummary(returns=frozenset({"a"}), passthrough=frozenset({0}))
        right = CallSummary(
            returns=frozenset({"b"}),
            passthrough=frozenset({1}),
            returns_resource=True,
        )
        merged = left.merge(right)
        assert merged.returns == frozenset({"a", "b"})
        assert merged.passthrough == frozenset({0, 1})
        assert merged.returns_resource

    def test_solver_reaches_fixpoint_on_loop(self):
        cfg, states = solve("""\
        def f(n):
            t = 0
            while n:
                t = t + time.time()
                n = n - 1
            return t
        """, TaintAnalysis(WALLCLOCK))
        env = env_at_exit(cfg, states)
        # Taint introduced on the back edge reaches the loop exit.
        assert "wallclock" in env.get("t", frozenset())
