"""SEX3xx — determinism.

The reproduction's contract is that a run is a pure function of
``(graph, algorithm, memory budget, seed)``: the differential suite
replays fault schedules, the CI matrix pins seeds, and the paper's I/O
counts are asserted exactly.  Unseeded randomness, wall-clock branches
and iteration over unordered containers in tree-building paths all break
replay in ways a unit test only catches intermittently — so the checker
bans the syntactic forms outright and demands a waiver where wall-clock
use is genuinely observational (timing metrics, deadlines).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Tuple

from ..callgraph import ProjectContext, taint_states
from ..cfg import own_expressions
from .base import (
    FlowRule,
    RawViolation,
    Rule,
    in_algorithm_core,
    in_observability_layer,
    register,
)

#: ``random`` module functions that draw from the shared, unseeded global
#: generator (seeding the global via ``random.seed`` is still shared
#: mutable state across call sites, so it is listed too).
_GLOBAL_RANDOM_FUNCTIONS: Tuple[str, ...] = (
    "random", "randint", "randrange", "shuffle", "choice", "choices",
    "sample", "uniform", "gauss", "betavariate", "expovariate",
    "getrandbits", "seed",
)

#: Wall-clock sources; reading one inside the algorithm core makes
#: behaviour time-dependent unless explicitly waived as observational.
_TIME_FUNCTIONS: Tuple[str, ...] = (
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
)
_DATETIME_FUNCTIONS: Tuple[str, ...] = ("now", "utcnow", "today")


@register
class UnseededRandomRule(Rule):
    """Global-generator randomness is unreplayable; require Random(seed)."""

    code = "SEX301"
    name = "det-unseeded-random"
    summary = (
        "module-level random.*() calls and random.Random() without a seed "
        "draw from unseeded state; construct random.Random(seed) and pass "
        "it down"
    )

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [alias.name for alias in node.names
                       if alias.name in _GLOBAL_RANDOM_FUNCTIONS]
                if bad:
                    yield self.violation(
                        node,
                        f"importing {', '.join(bad)} from random binds the "
                        "unseeded global generator; import Random and seed it",
                    )
                continue
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "random"):
                continue
            attr = node.func.attr
            if attr in _GLOBAL_RANDOM_FUNCTIONS:
                yield self.violation(
                    node,
                    f"random.{attr}() uses the unseeded global generator; "
                    "use random.Random(seed)",
                )
            elif attr == "Random" and not node.args and not node.keywords:
                yield self.violation(
                    node,
                    "random.Random() without a seed is nondeterministic; "
                    "pass an explicit seed",
                )


@register
class WallClockRule(Rule):
    """Wall-clock reads in the algorithm core are suspect by default."""

    code = "SEX302"
    name = "det-wall-clock-in-core"
    summary = (
        "time.*/datetime.now() inside repro/algorithms/ or repro/core/ "
        "makes behaviour time-dependent; waive only observational uses "
        "(metrics, deadlines that abort rather than alter results); the "
        "observability layer (repro/obs/) is exempt wholesale"
    )

    def applies_to(self, relpath: str) -> bool:
        return in_algorithm_core(relpath) and not in_observability_layer(relpath)

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            base = node.func.value
            base_name = base.id if isinstance(base, ast.Name) else ""
            if base_name == "time" and attr in _TIME_FUNCTIONS:
                yield self.violation(
                    node,
                    f"time.{attr}() in the algorithm core; tree "
                    "construction must not depend on wall-clock time",
                )
            elif attr in _DATETIME_FUNCTIONS and (
                base_name in ("datetime", "date")
                or (isinstance(base, ast.Attribute)
                    and base.attr in ("datetime", "date"))
            ):
                yield self.violation(
                    node,
                    f"datetime.{attr}() in the algorithm core; tree "
                    "construction must not depend on wall-clock time",
                )


@register
class UnorderedIterationRule(Rule):
    """Iterating a raw set feeds hash order into the DFS tree."""

    code = "SEX303"
    name = "det-unordered-iteration-in-core"
    summary = (
        "for-loops and comprehensions directly over set()/frozenset()/set "
        "literals in the algorithm core iterate in hash order; sort first "
        "so sibling order is reproducible"
    )

    def applies_to(self, relpath: str) -> bool:
        return in_algorithm_core(relpath)

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                if self._is_unordered(candidate):
                    yield self.violation(
                        candidate,
                        "iteration directly over an unordered set; wrap it "
                        "in sorted(...) so downstream tree order is "
                        "deterministic",
                    )

    @staticmethod
    def _is_unordered(node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )


# ----------------------------------------------------------------------
# Flow-sensitive determinism taint (SEX31x).
#
# The syntactic rules above catch nondeterminism at its *source*; the
# flow rules below catch it at the *sink*, after the value has travelled
# through assignments, arithmetic, helper calls (via call-graph
# summaries) and containers.  Sinks are the places nondeterminism
# becomes externally observable run state: RunResult construction
# (``finish``/``finish_result``/result constructors), span payloads
# (``.annotate(...)``), and writes into storage resources (``.append``
# etc. on a value the taint engine knows is a live resource).

#: Result-constructing callables whose arguments are persisted run state.
_RESULT_SINK_NAMES: Tuple[str, ...] = (
    "finish", "finish_result", "RunResult", "DFSResult", "BFSResult",
)

#: Write methods that persist their arguments when the receiver is a
#: storage resource (edge file / partition writer / device).
_RESOURCE_WRITE_METHODS: Tuple[str, ...] = (
    "append", "extend", "extend_columns", "route_columns", "write_block",
)

#: Keyword arguments that are *defined* as wall-clock measurements; the
#: one sanctioned timing field.
_EXEMPT_KEYWORDS: Tuple[str, ...] = ("elapsed_seconds",)


def _sink_hits(info, context, kinds):
    """``(expr, sink_description, hit_kinds)`` per tainted sink argument."""
    analysis, states = taint_states(info, context)
    for node_id, stmt in info.cfg.statements.items():
        env = states.get(node_id)
        if env is None:
            continue  # unreachable statement
        for expr in own_expressions(stmt):
            for call in ast.walk(expr):
                if not isinstance(call, ast.Call):
                    continue
                sink = _sink_description(call, analysis, env)
                if sink is None:
                    continue
                arguments = list(call.args)
                arguments.extend(
                    keyword.value for keyword in call.keywords
                    if keyword.arg not in _EXEMPT_KEYWORDS
                )
                for argument in arguments:
                    hit = analysis.taint_of(argument, env) & kinds
                    if hit:
                        yield argument, sink, hit


def _sink_description(call, analysis, env):
    """What kind of sink ``call`` is, or ``None``."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in _RESULT_SINK_NAMES:
        return f"run-result construction via {func.id}()"
    if isinstance(func, ast.Attribute):
        if func.attr in _RESULT_SINK_NAMES:
            return f"run-result construction via .{func.attr}()"
        if func.attr == "annotate":
            return "a span payload (.annotate())"
        if func.attr in _RESOURCE_WRITE_METHODS and "resource" in (
            analysis.taint_of(func.value, env)
        ):
            return f"a storage write (.{func.attr}())"
    return None


class _TaintSinkRule(FlowRule):
    """Shared driver for the SEX31x sink rules."""

    kinds: FrozenSet[str] = frozenset()
    advice: str = ""

    def applies_to(self, relpath: str) -> bool:
        return in_algorithm_core(relpath) and not in_observability_layer(relpath)

    def check_flow(
        self, module: ast.Module, relpath: str, context: ProjectContext
    ) -> Iterator[RawViolation]:
        for info in context.functions.get(relpath, []):
            for expr, sink, hit in _sink_hits(info, context, self.kinds):
                yield self.violation(
                    expr,
                    f"value tainted by {'/'.join(sorted(hit))} reaches "
                    f"{sink} in {info.qualname}(); {self.advice}",
                )


@register
class HostStateTaintRule(_TaintSinkRule):
    """Wall-clock/random/environment values must not reach run state."""

    code = "SEX311"
    name = "det-host-state-reaches-run-state"
    summary = (
        "a value derived from time.*/random.*/os.environ/id() flows into "
        "a RunResult field, span payload or storage write (tracked "
        "through assignments and project calls); results must be a pure "
        "function of (graph, algorithm, memory, seed) — elapsed_seconds "
        "is the one sanctioned timing field"
    )

    kinds = frozenset({"wallclock", "random", "environ", "id"})
    advice = (
        "derive run state only from the inputs; timing belongs in "
        "elapsed_seconds, host identity does not belong at all"
    )


@register
class SetOrderTaintRule(_TaintSinkRule):
    """Set-iteration order must not reach run state."""

    code = "SEX312"
    name = "det-set-order-reaches-run-state"
    summary = (
        "a value produced by iterating an unordered set flows into a "
        "RunResult field, span payload or storage write; hash order "
        "varies across processes (PYTHONHASHSEED), so sort before "
        "iterating (sorted() launders the taint)"
    )

    kinds = frozenset({"setiter"})
    advice = "iterate sorted(...) so the recorded order is reproducible"
