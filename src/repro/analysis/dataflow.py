"""Forward dataflow over :mod:`repro.analysis.cfg` graphs.

A generic worklist solver (:func:`solve_forward`) parameterized by a
:class:`ForwardAnalysis`: states join at control-flow merges, transfer
functions are applied per statement, and the solver iterates to a
fixpoint (states must form a finite-height lattice; every analysis here
uses finite sets keyed by variable names, so termination is structural).

One analysis ships with the solver: :class:`TaintAnalysis`, a
configurable taint lattice — an environment mapping variable names to
frozensets of taint *kinds* (``"wallclock"``, ``"random"``,
``"environ"``, ``"id"``, ``"setiter"``, ``"scan"``, plus synthetic
``"param:N"`` kinds used for function summaries).  Sources, sanitizers,
and call summaries are injected by the client, so the same engine powers
the determinism rules, the materialization rules, and the call-graph
summary construction.

States are immutable (dicts are copied on write in transfers); the
solver never mutates a state it has already stored.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Generic,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from .cfg import CFG, ENTRY, EXCEPTION, NORMAL  # noqa: F401

State = TypeVar("State")

#: Taint environment: variable name -> set of taint kinds.
TaintEnv = Dict[str, FrozenSet[str]]

EMPTY: FrozenSet[str] = frozenset()


class ForwardAnalysis(Generic[State]):
    """Client interface for :func:`solve_forward`."""

    def initial(self) -> State:
        """The state entering the function (at ``ENTRY``)."""
        raise NotImplementedError

    def join(self, left: State, right: State) -> State:
        """The least upper bound of two states (must be commutative)."""
        raise NotImplementedError

    def transfer(self, stmt: ast.stmt, state: State) -> State:
        """The state after executing ``stmt`` normally."""
        raise NotImplementedError

    def transfer_exception(self, stmt: ast.stmt, state: State) -> State:
        """The state flowing along ``stmt``'s *exception* out-edge.

        Defaults to the pre-state: when a statement raises partway, its
        effect (an assignment that never happened, a resource the failed
        call never returned) must not be assumed.  Analyses for which
        partial effects matter can override.
        """
        return state

    def equals(self, left: State, right: State) -> bool:
        """State equality (fixpoint detection); ``==`` by default."""
        return bool(left == right)


def solve_forward(
    cfg: CFG, analysis: "ForwardAnalysis[State]"
) -> Dict[int, State]:
    """Run ``analysis`` to a fixpoint; returns the IN state per node.

    The IN state of a node is the join over all its incoming edges of
    the corresponding out-state (normal or exceptional) of each
    predecessor.  Pseudo-nodes (``ENTRY``/``EXIT``/``RAISE``) have
    identity transfers.
    """
    order = cfg.rpo()
    position = {node: index for index, node in enumerate(order)}
    in_states: Dict[int, State] = {ENTRY: analysis.initial()}
    worklist: List[int] = list(order)
    pending: Set[int] = set(worklist)

    while worklist:
        worklist.sort(key=lambda node: position.get(node, len(position)))
        node = worklist.pop(0)
        pending.discard(node)
        state = in_states.get(node)
        if state is None:
            continue  # unreachable so far
        stmt = cfg.statements.get(node)
        if stmt is None:
            normal_out = state
            exception_out = state
        else:
            normal_out = analysis.transfer(stmt, state)
            exception_out = analysis.transfer_exception(stmt, state)
        for target, kind in cfg.succ.get(node, []):
            incoming = exception_out if kind == EXCEPTION else normal_out
            existing = in_states.get(target)
            merged = (
                incoming
                if existing is None
                else analysis.join(existing, incoming)
            )
            if existing is None or not analysis.equals(existing, merged):
                in_states[target] = merged
                if target not in pending:
                    pending.add(target)
                    worklist.append(target)
    return in_states


# ----------------------------------------------------------------------
# Taint.


@dataclass
class TaintConfig:
    """What taints, what cleans, and how calls behave.

    Attributes:
        call_sources: called-name → taint kinds (``time.perf_counter`` →
            ``{"wallclock"}``); names are dotted best-effort renderings
            of the call target (see :func:`dotted_name`).
        attribute_sources: dotted value reads that taint without a call
            (``os.environ`` → ``{"environ"}``).
        sanitizers: call names whose *result* is clean regardless of
            argument taint (``sorted`` launders set-iteration order).
        summaries: bare callee name → :class:`CallSummary` describing
            taint through project-local calls.
        set_iteration: whether iterating a set-typed value taints the
            loop variable with ``"setiter"``.
    """

    call_sources: Mapping[str, FrozenSet[str]] = field(default_factory=dict)
    attribute_sources: Mapping[str, FrozenSet[str]] = field(default_factory=dict)
    sanitizers: FrozenSet[str] = frozenset({"sorted", "len", "min", "max", "sum"})
    summaries: Mapping[str, "CallSummary"] = field(default_factory=dict)
    set_iteration: bool = True


@dataclass(frozen=True)
class CallSummary:
    """How taint flows through one project-local function.

    Attributes:
        returns: kinds the return value carries regardless of arguments.
        passthrough: argument positions whose taint reaches the return
            value.
        returns_resource: the return value is (or contains) a live
            resource the caller becomes responsible for.
    """

    returns: FrozenSet[str] = EMPTY
    passthrough: FrozenSet[int] = frozenset()
    returns_resource: bool = False

    def merge(self, other: "CallSummary") -> "CallSummary":
        """Union of two summaries (same-name overloads join soundly)."""
        return CallSummary(
            returns=self.returns | other.returns,
            passthrough=self.passthrough | other.passthrough,
            returns_resource=self.returns_resource or other.returns_resource,
        )


def dotted_name(expr: ast.expr) -> str:
    """Best-effort dotted rendering (``a.b.c``) of a name/attribute."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if parts:
        return "." + ".".join(reversed(parts))
    return ""


class TaintAnalysis(ForwardAnalysis[TaintEnv]):
    """Taint propagation over simple-name environments."""

    def __init__(
        self, config: TaintConfig, seed: Optional[TaintEnv] = None
    ) -> None:
        self.config = config
        self.seed: TaintEnv = dict(seed or {})

    def initial(self) -> TaintEnv:
        return dict(self.seed)

    def join(self, left: TaintEnv, right: TaintEnv) -> TaintEnv:
        if left == right:
            return left
        merged = dict(left)
        for var, kinds in right.items():
            merged[var] = merged.get(var, EMPTY) | kinds
        return merged

    def equals(self, left: TaintEnv, right: TaintEnv) -> bool:
        return left == right

    # -- expression evaluation -----------------------------------------
    def taint_of(self, expr: Optional[ast.expr], env: TaintEnv) -> FrozenSet[str]:
        """The taint kinds carried by ``expr`` under ``env``."""
        if expr is None:
            return EMPTY
        if isinstance(expr, ast.Name):
            return env.get(expr.id, EMPTY)
        if isinstance(expr, ast.Call):
            return self.call_taint(expr, env)
        if isinstance(expr, ast.Attribute):
            name = dotted_name(expr)
            source = self.config.attribute_sources.get(name)
            if source:
                return source
            return self.taint_of(expr.value, env)
        if isinstance(expr, (ast.Await, ast.Starred)):
            return self.taint_of(expr.value, env)
        if isinstance(expr, ast.Subscript):
            return self.taint_of(expr.value, env) | self.taint_of(
                expr.slice, env
            )
        if isinstance(expr, ast.BinOp):
            return self.taint_of(expr.left, env) | self.taint_of(
                expr.right, env
            )
        if isinstance(expr, ast.UnaryOp):
            return self.taint_of(expr.operand, env)
        if isinstance(expr, ast.BoolOp):
            kinds = EMPTY
            for value in expr.values:
                kinds |= self.taint_of(value, env)
            return kinds
        if isinstance(expr, ast.Compare):
            return EMPTY  # comparisons yield order-free booleans
        if isinstance(expr, ast.IfExp):
            return self.taint_of(expr.body, env) | self.taint_of(
                expr.orelse, env
            )
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            kinds = EMPTY
            for element in expr.elts:
                kinds |= self.taint_of(element, env)
            return kinds
        if isinstance(expr, ast.Dict):
            kinds = EMPTY
            for key in expr.keys:
                if key is not None:
                    kinds |= self.taint_of(key, env)
            for value in expr.values:
                kinds |= self.taint_of(value, env)
            return kinds
        if isinstance(expr, ast.JoinedStr):
            kinds = EMPTY
            for value in expr.values:
                kinds |= self.taint_of(value, env)
            return kinds
        if isinstance(expr, ast.FormattedValue):
            return self.taint_of(expr.value, env)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.comprehension_taint(expr.elt, expr.generators, env)
        if isinstance(expr, ast.DictComp):
            return self.comprehension_taint(
                expr.value, expr.generators, env
            ) | self.comprehension_taint(expr.key, expr.generators, env)
        return EMPTY

    def comprehension_taint(
        self,
        element: ast.expr,
        generators: List[ast.comprehension],
        env: TaintEnv,
    ) -> FrozenSet[str]:
        local = dict(env)
        for gen in generators:
            iter_kinds = self.taint_of(gen.iter, local)
            if self.config.set_iteration and is_set_expr(gen.iter, local):
                iter_kinds |= frozenset({"setiter"})
            for node in ast.walk(gen.target):
                if isinstance(node, ast.Name):
                    local[node.id] = iter_kinds
        return self.taint_of(element, local)

    def call_taint(self, call: ast.Call, env: TaintEnv) -> FrozenSet[str]:
        name = dotted_name(call.func)
        bare = name.rsplit(".", 1)[-1]
        if bare in self.config.sanitizers:
            return EMPTY
        kinds = EMPTY
        source = self.config.call_sources.get(name)
        if source:
            kinds |= source
        summary = self.config.summaries.get(bare)
        if summary is not None:
            kinds |= summary.returns
            for position in summary.passthrough:
                if position < len(call.args):
                    kinds |= self.taint_of(call.args[position], env)
        else:
            # Unknown callee: conservatively, taint flows through the
            # arguments into the result (a pure-ish default that keeps
            # wrapper helpers like float()/str() transparent).
            for arg in call.args:
                kinds |= self.taint_of(arg, env)
            for keyword in call.keywords:
                kinds |= self.taint_of(keyword.value, env)
            # A method call on a tainted receiver yields taint.
            if isinstance(call.func, ast.Attribute):
                kinds |= self.taint_of(call.func.value, env)
        return kinds

    # -- transfer -------------------------------------------------------
    def transfer(self, stmt: ast.stmt, state: TaintEnv) -> TaintEnv:
        if isinstance(stmt, ast.Assign):
            kinds = self.taint_of(stmt.value, state)
            return self._bind_targets(stmt.targets, kinds, state)
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return state
            kinds = self.taint_of(stmt.value, state)
            return self._bind_targets([stmt.target], kinds, state)
        if isinstance(stmt, ast.AugAssign):
            kinds = self.taint_of(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                existing = state.get(stmt.target.id, EMPTY)
                if kinds | existing != existing:
                    updated = dict(state)
                    updated[stmt.target.id] = existing | kinds
                    return updated
            return state
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            kinds = self.taint_of(stmt.iter, state)
            if self.config.set_iteration and is_set_expr(stmt.iter, state):
                kinds |= frozenset({"setiter"})
            return self._bind_targets([stmt.target], kinds, state)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            updated = state
            for item in stmt.items:
                if item.optional_vars is not None:
                    kinds = self.taint_of(item.context_expr, state)
                    updated = self._bind_targets(
                        [item.optional_vars], kinds, updated
                    )
            return updated
        return state

    def _bind_targets(
        self, targets: List[ast.expr], kinds: FrozenSet[str], state: TaintEnv
    ) -> TaintEnv:
        names = [
            node.id
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name)
        ]
        if not names:
            return state
        updated = dict(state)
        for name in names:
            updated[name] = kinds
        return updated


#: Names whose calls build sets (for set-iteration detection).
_SET_BUILDERS = ("set", "frozenset")


def is_set_expr(expr: ast.expr, env: TaintEnv) -> bool:
    """Whether ``expr`` is syntactically set-typed (literal/ctor/comp).

    This is a *local* type guess, not inference: variables are tracked
    through the special ``"settype"`` taint kind that set-building
    expressions deposit (see :func:`set_type_kinds`).
    """
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
        if name in _SET_BUILDERS:
            return True
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitAnd, ast.BitOr, ast.Sub)
    ):
        # Set algebra on set operands stays a set; approximate by either
        # side looking set-typed.
        return is_set_expr(expr.left, env) or is_set_expr(expr.right, env)
    if isinstance(expr, ast.Name):
        return "settype" in env.get(expr.id, EMPTY)
    return False


def set_type_kinds(expr: ast.expr, env: TaintEnv) -> FrozenSet[str]:
    """``{"settype"}`` when ``expr`` evaluates to a set, else empty."""
    if is_set_expr(expr, env):
        return frozenset({"settype"})
    return EMPTY
