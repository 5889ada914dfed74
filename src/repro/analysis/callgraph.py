"""Project-wide call graph with per-function taint summaries.

The flow-sensitive rule families need taint to cross function
boundaries inside ``src/repro`` — ``_finish_result`` receiving a
wall-clock value, a helper returning a live part file its caller must
close.  This module builds that bridge:

1. Every module in the project is parsed once and every function body
   gets a CFG (:func:`repro.analysis.cfg.function_cfgs`).
2. Each function is analysed with :class:`~.dataflow.TaintAnalysis`,
   its parameters seeded with synthetic ``param:N`` taint kinds.  The
   taint observed at its ``return`` statements yields a
   :class:`FunctionSummary`: which global kinds the result carries
   (``returns``), which argument positions flow to the result
   (``passthrough``), and whether the result is a live resource
   (``returns_resource``, i.e. the ``"resource"`` kind reached it).
3. Summaries are indexed by *bare* function name (calls in Python are
   resolved dynamically; same-name collisions are joined with
   :meth:`~.dataflow.CallSummary.merge`, which is conservative for a
   may-analysis) and fed back into the taint configuration.  The loop
   repeats until the summary table is stable, bounded by
   :data:`MAX_SUMMARY_ROUNDS` (transitive call chains in this codebase
   are shallow; two or three rounds suffice in practice).

The resulting :class:`ProjectContext` carries the parsed modules, the
per-function CFGs and the merged summary table.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .cfg import CFG, function_cfgs
from .dataflow import (
    EMPTY,
    CallSummary,
    TaintAnalysis,
    TaintConfig,
    TaintEnv,
    set_type_kinds,
    solve_forward,
)

#: Upper bound on summary fixpoint rounds; the table almost always
#: stabilises in 2-3 rounds, and a bound keeps pathological inputs
#: (deep mutual recursion) from stalling the checker.
MAX_SUMMARY_ROUNDS = 10

#: Call targets that introduce nondeterminism or host state, by dotted
#: name.  These seed the determinism taint (SEX31x) and flow through
#: summaries like any other kind.
GLOBAL_CALL_SOURCES: Mapping[str, FrozenSet[str]] = {
    "time.time": frozenset({"wallclock"}),
    "time.time_ns": frozenset({"wallclock"}),
    "time.monotonic": frozenset({"wallclock"}),
    "time.monotonic_ns": frozenset({"wallclock"}),
    "time.perf_counter": frozenset({"wallclock"}),
    "time.perf_counter_ns": frozenset({"wallclock"}),
    "time.process_time": frozenset({"wallclock"}),
    "datetime.datetime.now": frozenset({"wallclock"}),
    "datetime.datetime.utcnow": frozenset({"wallclock"}),
    "random.random": frozenset({"random"}),
    "random.randint": frozenset({"random"}),
    "random.randrange": frozenset({"random"}),
    "random.choice": frozenset({"random"}),
    "random.sample": frozenset({"random"}),
    "random.shuffle": frozenset({"random"}),
    "random.getrandbits": frozenset({"random"}),
    "os.urandom": frozenset({"random"}),
    "uuid.uuid4": frozenset({"random"}),
    "os.getenv": frozenset({"environ"}),
    "os.environ.get": frozenset({"environ"}),
    "id": frozenset({"id"}),
}

#: Attribute reads (no call) that carry taint.
GLOBAL_ATTRIBUTE_SOURCES: Mapping[str, FrozenSet[str]] = {
    "os.environ": frozenset({"environ"}),
}

#: Bare call names whose result is a live storage resource the caller
#: owns (constructors and factory methods across the storage layer).
#: These seed the ``"resource"`` kind that ``returns_resource``
#: summaries and the SEX6xx lifecycle rule consume.
RESOURCE_CALL_NAMES: FrozenSet[str] = frozenset(
    {
        "PartitionWriter",
        "BlockDevice",
        "create_edge_file",
        "open_sealed",
        "edge_file_from_edges",
    }
)

#: Bare call names whose result derives from a block-charged edge scan
#: (the SEX21x materialization family tracks where these accumulate).
SCAN_CALL_NAMES: FrozenSet[str] = frozenset(
    {"scan", "scan_blocks", "scan_columns"}
)


class SummaryTaint(TaintAnalysis):
    """Taint analysis that also marks resource, scan and set producers.

    Besides the configured sources, three *structural* kinds are added:
    ``"resource"`` on acquirer calls, ``"scan"`` on edge-scan calls, and
    ``"settype"`` on set-building expressions — the latter is what lets
    the base class tag iteration over a set-typed variable with
    ``"setiter"`` (see :func:`~.dataflow.is_set_expr`).
    """

    def call_taint(self, call: ast.Call, env: TaintEnv) -> FrozenSet[str]:
        kinds = super().call_taint(call, env)
        name = _bare_call_name(call)
        if name in RESOURCE_CALL_NAMES:
            kinds |= frozenset({"resource"})
        if name in SCAN_CALL_NAMES:
            kinds |= frozenset({"scan"})
        return kinds

    def transfer(self, stmt: ast.stmt, state: TaintEnv) -> TaintEnv:
        out = super().transfer(stmt, state)
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is not None:
            kinds = set_type_kinds(value, state)
            if kinds:
                out = dict(out)
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            out[node.id] = out.get(node.id, EMPTY) | kinds
        return out


def _bare_call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


@dataclass(frozen=True)
class FunctionSummary:
    """Observable taint behaviour of one project function."""

    qualname: str
    path: str
    returns: FrozenSet[str] = EMPTY
    passthrough: FrozenSet[int] = frozenset()
    returns_resource: bool = False

    def to_call_summary(self) -> CallSummary:
        return CallSummary(
            returns=self.returns,
            passthrough=self.passthrough,
            returns_resource=self.returns_resource,
        )


@dataclass
class FunctionInfo:
    """One analysed function: its AST, CFG, and summary."""

    qualname: str
    path: str
    node: ast.AST
    cfg: CFG
    summary: FunctionSummary
    #: Memoized final-config taint solve shared by the flow rules
    #: (computed lazily by :func:`taint_states`).
    taint: Optional[Tuple["SummaryTaint", Dict[int, TaintEnv]]] = None


@dataclass
class ProjectContext:
    """Everything the flow rules need beyond a single file's AST.

    Attributes:
        modules: relpath → parsed module.
        functions: relpath → analysed functions in that file.
        summaries: bare callee name → merged call summary, for use in a
            :class:`~.dataflow.TaintConfig`.
    """

    modules: Dict[str, ast.Module] = field(default_factory=dict)
    functions: Dict[str, List[FunctionInfo]] = field(default_factory=dict)
    summaries: Dict[str, CallSummary] = field(default_factory=dict)

    def taint_config(self) -> TaintConfig:
        """The project-aware taint configuration the rules analyse with."""
        return TaintConfig(
            call_sources=GLOBAL_CALL_SOURCES,
            attribute_sources=GLOBAL_ATTRIBUTE_SOURCES,
            summaries=self.summaries,
        )


def _positional_params(node: ast.AST) -> List[str]:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    args = node.args
    return [a.arg for a in (*args.posonlyargs, *args.args)]


def _param_seed(params: List[str]) -> TaintEnv:
    return {
        name: frozenset({f"param:{index}"})
        for index, name in enumerate(params)
    }


def _summarize_function(
    qualname: str,
    path: str,
    node: ast.AST,
    cfg: CFG,
    config: TaintConfig,
) -> FunctionSummary:
    params = _positional_params(node)
    analysis = SummaryTaint(config, seed=_param_seed(params))
    states = solve_forward(cfg, analysis)
    returned: FrozenSet[str] = EMPTY
    for node_id, stmt in cfg.statements.items():
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            env = states.get(node_id)
            if env is not None:
                returned |= analysis.taint_of(stmt.value, env)
    passthrough = frozenset(
        int(kind.split(":", 1)[1])
        for kind in returned
        if kind.startswith("param:")
    )
    global_kinds = frozenset(
        kind for kind in returned if not kind.startswith("param:")
    )
    return FunctionSummary(
        qualname=qualname,
        path=path,
        # "scan" is deliberately intraprocedural: a callee that consumed
        # an edge scan returns an *aggregate it already accounted for*
        # (a tree, a result, a bounded batch) — if the callee itself
        # materialized unboundedly, SEX211 flags it there.  Propagating
        # scan through returns would convict every consumer of every
        # solver.  ("settype" does flow through: a helper returning a
        # set makes the *caller's* iteration order-sensitive.)
        returns=global_kinds - frozenset({"scan"}),
        passthrough=passthrough,
        returns_resource="resource" in global_kinds,
    )


def build_project_context(sources: Mapping[str, str]) -> ProjectContext:
    """Parse every file and compute summaries to a fixpoint.

    Files that fail to parse are skipped here; the engine reports them
    separately (SEX004) during per-file analysis.
    """
    modules: Dict[str, ast.Module] = {}
    for relpath in sorted(sources):
        try:
            modules[relpath] = ast.parse(sources[relpath])
        except SyntaxError:
            continue
    return context_from_modules(modules)


def context_from_modules(modules: Mapping[str, ast.Module]) -> ProjectContext:
    """Build a context from already-parsed modules (see module docstring)."""
    context = ProjectContext()
    shells: Dict[str, List[Tuple[str, ast.AST, CFG]]] = {}
    for relpath in sorted(modules):
        context.modules[relpath] = modules[relpath]
        shells[relpath] = list(function_cfgs(modules[relpath]))

    summaries: Dict[str, CallSummary] = {}
    for _ in range(MAX_SUMMARY_ROUNDS):
        config = TaintConfig(
            call_sources=GLOBAL_CALL_SOURCES,
            attribute_sources=GLOBAL_ATTRIBUTE_SOURCES,
            summaries=summaries,
        )
        fresh: Dict[str, CallSummary] = {}
        infos: Dict[str, List[FunctionInfo]] = {}
        for relpath, functions in shells.items():
            file_infos: List[FunctionInfo] = []
            for qualname, node, cfg in functions:
                summary = _summarize_function(
                    qualname, relpath, node, cfg, config
                )
                file_infos.append(
                    FunctionInfo(qualname, relpath, node, cfg, summary)
                )
                bare = qualname.rsplit(".", 1)[-1]
                call_summary = summary.to_call_summary()
                if bare in fresh:
                    call_summary = fresh[bare].merge(call_summary)
                fresh[bare] = call_summary
            infos[relpath] = file_infos
        context.functions = infos
        if fresh == summaries:
            break
        summaries = fresh
    context.summaries = summaries
    return context


def single_file_context(relpath: str, source: str) -> ProjectContext:
    """A context for analysing one file in isolation (tests, stdin)."""
    return build_project_context({relpath: source})


def resolve_summary(
    context: ProjectContext, name: str
) -> Optional[CallSummary]:
    """Look up the merged summary for a (possibly dotted) callee name."""
    return context.summaries.get(name.rsplit(".", 1)[-1])


def taint_states(
    info: FunctionInfo, context: ProjectContext
) -> Tuple[SummaryTaint, Dict[int, TaintEnv]]:
    """The function's taint solve under the final project config.

    Memoized on the :class:`FunctionInfo` so the determinism and
    materialization rules (which both read per-statement taint) pay for
    one solve per function, not one per rule.
    """
    if info.taint is None:
        analysis = SummaryTaint(context.taint_config())
        info.taint = (analysis, solve_forward(info.cfg, analysis))
    return info.taint
