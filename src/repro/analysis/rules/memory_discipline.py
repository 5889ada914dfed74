"""SEX2xx — semi-external memory discipline.

The model's defining constraint (paper §2): memory holds only ``k·|V|``
elements — the spanning tree plus O(1) per-node state — while the edge
set stays on disk and is consumed *streaming*, one block at a time.
Wrapping an edge scan in ``list()`` (or building any O(E) structure from
one) silently re-admits the whole edge set into memory: the run still
produces a correct tree and still reports paper-perfect I/O counts, but
the claimed memory bound is fiction.  These rules catch the
materialization patterns syntactically in the algorithm core and steer
them to the external-memory primitives (``sort_edge_file``, streaming
scans).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Tuple

from ..callgraph import ProjectContext, taint_states
from .base import (
    INMEMORY_SOLVER_FILES,
    SCAN_METHOD_NAMES,
    FlowRule,
    RawViolation,
    Rule,
    in_algorithm_core,
    register,
)

#: Builtins that drain an iterator into an O(E) in-memory structure.
_MATERIALIZERS: Tuple[str, ...] = (
    "list", "tuple", "set", "frozenset", "sorted", "dict",
)


def _is_scan_call(node: ast.AST) -> bool:
    """Whether ``node`` is a ``<expr>.scan*()`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SCAN_METHOD_NAMES
    )


class _CoreScopedRule(Rule):
    """Shared scope: the semi-external algorithm core only."""

    def applies_to(self, relpath: str) -> bool:
        return in_algorithm_core(relpath)


@register
class MaterializedScanRule(_CoreScopedRule):
    """``list(edge_file.scan())`` pulls the whole edge set into memory."""

    code = "SEX201"
    name = "mem-materialized-edge-scan"
    summary = (
        "wrapping an edge scan in list/sorted/set/dict/... builds an O(E) "
        "in-memory structure; stream the scan or use external_sort"
    )

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _MATERIALIZERS):
                continue
            if any(_is_scan_call(arg) for arg in node.args):
                scan = next(arg for arg in node.args if _is_scan_call(arg))
                attr = scan.func.attr if isinstance(scan.func, ast.Attribute) else "scan"
                yield self.violation(
                    node,
                    f"{node.func.id}(...{attr}()) materializes a full edge "
                    "scan in memory, breaking the k*|V| bound; stream it or "
                    "use repro.storage.sort_edge_file",
                )


@register
class ComprehensionOverScanRule(_CoreScopedRule):
    """A non-generator comprehension over a scan is the same O(E) breach."""

    code = "SEX202"
    name = "mem-comprehension-over-edge-scan"
    summary = (
        "list/set/dict comprehensions over an edge scan accumulate O(E) "
        "elements; a generator expression (lazy) is fine"
    )

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if not isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
                continue
            if any(_is_scan_call(gen.iter) for gen in node.generators):
                kind = type(node).__name__.replace("Comp", "").lower()
                yield self.violation(
                    node,
                    f"{kind} comprehension over an edge scan accumulates "
                    "O(E) elements in memory; iterate the scan streaming or "
                    "use a generator expression",
                )


@register
class ReadAllRule(_CoreScopedRule):
    """``EdgeFile.read_all()`` is an explicit whole-file materializer."""

    code = "SEX203"
    name = "mem-edge-file-read-all"
    summary = (
        "EdgeFile.read_all() loads the entire edge file; the algorithm "
        "core must consume scans block-by-block"
    )

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "read_all"):
                yield self.violation(
                    node,
                    ".read_all() loads the whole edge file into memory; "
                    "scan it block-by-block instead",
                )


# ----------------------------------------------------------------------
# Flow-sensitive materialization (SEX211).
#
# SEX201/202 catch `list(scan())` written in one expression; SEX211
# catches the spread-out version: a container built locally, filled with
# scan-derived values inside a loop, never reset — O(E) memory reached
# one append at a time.  The taint engine marks every value derived from
# a `.scan*()` call with the ``"scan"`` kind (intraprocedurally: a
# *callee's* return is an aggregate the callee already accounts for);
# the rule then looks for *growth* writes of scan-tainted values into
# locally-constructed containers inside a loop.
#
# The unit of judgement is the **outermost** loop: growth anywhere
# inside it is unbounded exactly when no reset of the container occurs
# anywhere inside it either.  Judging inner loops separately would
# convict the windowed-batch idiom (inner loop fills, outer loop
# flushes).  Growth means element-adding operations — ``.append`` /
# ``.add`` / ``.extend`` / ``.update`` / ``+=`` on the container, a
# member (``c[k].append(v)``, ``c.setdefault(k, []).append(v)``) or a
# local alias of a member (``t = c.get(u); t.append(v)``).  A plain
# keyed *replacement* (``best[v] = (level, parent)``) is not growth:
# it is bounded by the key domain, which in this codebase is the node
# set (``k·|V|`` — legal).
#
# Two legitimate patterns are carved out:
#
# * a container *reset inside the same outermost loop* — rebound to a
#   fresh container, ``.clear()``-ed, or reset by a nested flush
#   function that rebinds it via ``nonlocal`` (the windowed-batch idiom
#   in restructure.py) — is bounded by the window size, not O(E);
# * the designated in-memory solver (``repro/core/inmemory.py``) is
#   exempt wholesale: it runs only after the recursion has proved the
#   part fits the memory budget, so materializing there *is* the model.

#: Method calls that add elements to a container.
_ACCUMULATE_METHODS: Tuple[str, ...] = (
    "append", "add", "extend", "update", "insert", "appendleft",
)

#: Container methods that return a member (aliasing it).
_MEMBER_METHODS: Tuple[str, ...] = ("get", "setdefault")

#: Container-constructing callables (builtins + common stdlib).
_CONTAINER_CALLS: Tuple[str, ...] = (
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
    "deque",
)


def _is_fresh_container(node: ast.AST) -> bool:
    """Whether ``node`` constructs a new in-memory container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _CONTAINER_CALLS
    )


def _walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function/class defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(child))


def _local_containers(func: ast.AST) -> FrozenSet[str]:
    """Names bound to a fresh container anywhere in ``func``'s own scope."""
    names = set()
    for node in _walk_scope(func):
        if isinstance(node, ast.Assign) and _is_fresh_container(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
                and _is_fresh_container(node.value)
                and isinstance(node.target, ast.Name)):
            names.add(node.target.id)
    return frozenset(names)


def _flush_functions(func: ast.AST) -> Dict[str, FrozenSet[str]]:
    """Nested functions that reset an outer container via ``nonlocal``.

    Returns nested-function name -> the outer names it rebinds to a
    fresh container (the restructure.py ``flush_batch`` idiom).
    """
    flushers: Dict[str, FrozenSet[str]] = {}
    for node in _walk_scope(func):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        outer: set = set()
        for inner in ast.walk(node):
            if isinstance(inner, ast.Nonlocal):
                outer.update(inner.names)
        if not outer:
            continue
        reset = set()
        for inner in ast.walk(node):
            if isinstance(inner, ast.Assign) and _is_fresh_container(inner.value):
                for target in inner.targets:
                    if isinstance(target, ast.Name) and target.id in outer:
                        reset.add(target.id)
            elif (isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "clear"
                    and isinstance(inner.func.value, ast.Name)
                    and inner.func.value.id in outer):
                reset.add(inner.func.value.id)
        if reset:
            flushers[node.name] = frozenset(reset)
    return flushers


def _loop_resets(
    loop: ast.AST, containers: FrozenSet[str],
    flushers: Dict[str, FrozenSet[str]],
) -> FrozenSet[str]:
    """Containers reset somewhere inside ``loop``'s body."""
    reset = set()
    for node in _walk_scope(loop):
        if isinstance(node, ast.Assign) and _is_fresh_container(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in containers:
                    reset.add(target.id)
        elif isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "clear"
                    and isinstance(node.func.value, ast.Name)):
                reset.add(node.func.value.id)
            elif (isinstance(node.func, ast.Name)
                    and node.func.id in flushers):
                reset.update(flushers[node.func.id])
    return frozenset(reset & containers)


@register
class LoopAccumulationRule(FlowRule):
    """Scan-derived values must not pile up across loop iterations."""

    code = "SEX211"
    name = "mem-scan-accumulation-across-loop"
    summary = (
        "a locally-built container accumulates scan-derived values "
        "across loop iterations without an in-loop reset, re-admitting "
        "O(E) state one append at a time; stream the scan, flush the "
        "window inside the loop, or load through the designated "
        "in-memory solver (repro/core/inmemory.py, exempt)"
    )

    def applies_to(self, relpath: str) -> bool:
        return in_algorithm_core(relpath) and relpath not in INMEMORY_SOLVER_FILES

    def check_flow(
        self, module: ast.Module, relpath: str, context: ProjectContext
    ) -> Iterator[RawViolation]:
        for info in context.functions.get(relpath, []):
            func = info.node
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            containers = _local_containers(func)
            if not containers:
                continue
            analysis, states = taint_states(info, context)
            stmt_to_node = {
                id(stmt): node_id
                for node_id, stmt in info.cfg.statements.items()
            }
            flushers = _flush_functions(func)
            seen = set()
            for loop in _outermost_loops(func):
                resets = _loop_resets(loop, containers, flushers)
                live = containers - resets
                if not live:
                    continue
                aliases = _member_aliases(loop, live)
                body_stmts = {
                    id(node) for node in _walk_scope(loop)
                    if isinstance(node, ast.stmt)
                }
                for hit in self._accumulations(
                    info, analysis, states, stmt_to_node, body_stmts,
                    live, aliases,
                ):
                    key = (hit.line, hit.column, hit.message)
                    if key not in seen:
                        seen.add(key)
                        yield hit

    def _accumulations(
        self, info, analysis, states, stmt_to_node, body_stmts, live, aliases,
    ) -> Iterator[RawViolation]:
        for stmt_id in sorted(body_stmts):
            node_id = stmt_to_node.get(stmt_id)
            if node_id is None:
                continue
            stmt = info.cfg.statements[node_id]
            env = states.get(node_id)
            if env is None:
                continue
            target, values = _accumulation_of(stmt, live, aliases)
            if target is None:
                continue
            for value in values:
                if "scan" in analysis.taint_of(value, env):
                    yield self.violation(
                        stmt,
                        f"'{target}' accumulates scan-derived values "
                        f"across loop iterations in {info.qualname}() "
                        "with no in-loop reset; this rebuilds O(E) "
                        "state in memory — stream it, flush the window "
                        "inside the loop, or use repro.core.inmemory",
                    )
                    break


def _outermost_loops(func: ast.AST) -> Iterator[ast.AST]:
    """Loops in ``func``'s own scope not nested inside another loop."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
            yield child
            continue  # inner loops are judged as part of this one
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(child))


def _member_aliases(
    loop: ast.AST, live: FrozenSet[str]
) -> Dict[str, str]:
    """Local names aliasing a member of a live container inside ``loop``.

    ``t = c.get(u)`` / ``t = c.setdefault(u, [])`` / ``t = c[u]`` make
    ``t.append(v)`` grow ``c``.
    """
    aliases: Dict[str, str] = {}
    for node in _walk_scope(loop):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        value = node.value
        base = None
        if (isinstance(value, ast.Subscript)
                and isinstance(value.value, ast.Name)):
            base = value.value.id
        elif (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _MEMBER_METHODS
                and isinstance(value.func.value, ast.Name)):
            base = value.func.value.id
        if base in live:
            aliases[node.targets[0].id] = base
    return aliases


def _growth_receiver(call: ast.Call) -> str:
    """The root Name a growth-method call ultimately writes into.

    Resolves chained access: ``c[k].append(v)`` and
    ``c.setdefault(k, []).append(v)`` both root at ``c``.
    """
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr in _ACCUMULATE_METHODS):
        return ""
    node: ast.AST = call.func.value
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return ""


def _accumulation_of(
    stmt: ast.stmt, live: FrozenSet[str], aliases: Dict[str, str]
):
    """``(container, value_exprs)`` when ``stmt`` grows a live container."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        root = _growth_receiver(call)
        root = aliases.get(root, root)
        if root in live:
            return root, list(call.args)
    if isinstance(stmt, ast.AugAssign):
        target = stmt.target
        root = ""
        if isinstance(target, ast.Name):
            root = target.id
        elif (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)):
            root = target.value.id
        root = aliases.get(root, root)
        if root in live:
            return root, [stmt.value]
    return None, []
