"""SEX6xx — flow-sensitive resource lifecycle.

The storage layer's resources — part files from a
:class:`~repro.storage.edge_file.PartitionWriter`, edge files from
``create_edge_file``/``edge_file_from_edges``, whole
:class:`~repro.storage.block_device.BlockDevice` instances — are real
on-disk state.  A function that acquires one and exits without sealing,
closing, deleting or handing it off leaks disk for the rest of the run;
on *error* paths the leak is invisible to tests that only exercise the
happy path (the division-step part-file leak fixed in the process-pool
PR was exactly this shape).

``SEX601`` runs a may-analysis over each function's CFG
(:mod:`repro.analysis.cfg`): every variable bound directly from an
acquirer call — or from a project function whose summary says it
returns a live resource (:mod:`repro.analysis.callgraph`) — is tracked
through a tiny lattice of ``live``/``done`` facts:

* release methods (``close``/``delete``/``discard``/``seal``) mark the
  resource *done*;
* escapes transfer ownership and also mark it *done*: returning or
  yielding it, passing it to any call, storing it into an attribute,
  subscript, container or alias;
* ``with`` bindings are never tracked (the context manager releases).

Leaks are judged **per exit edge**, not at the joined exit state — the
distinction that makes the rule catch the real bug class.  Joining all
paths at ``RAISE`` would let the happy-path ``seal()``'s own exception
edge contribute a ``done`` fact that masks the routing loop's leak;
instead, each edge into ``EXIT`` and each *unhandled* exception edge
into ``RAISE`` is checked with the state actually flowing along it: a
resource ``live`` with no ``done`` on that edge is a leak.  An
exception edge is "handled" when the raising statement also dispatches
to an ``except`` handler or ``finally`` — the handler body is then
checked on its own (its ``raise`` carries the post-cleanup state), so
the narrow-except idiom the error-hygiene rules demand
(``except StorageError: w.discard(); raise``) passes without a
catch-all.  Within one program point the rule stays a may-analysis
(``live`` present and ``done`` absent in the joined incoming state), so
a release on *some* path into a point keeps it quiet.  Exception
out-edges of an acquiring statement use the pre-state (the constructor
that raised never produced a resource), so ``w = PartitionWriter(...)``
itself is not a leak when it fails.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from ..callgraph import RESOURCE_CALL_NAMES, ProjectContext, _bare_call_name
from ..cfg import CFG, EXCEPTION, EXIT, RAISE, own_expressions
from ..dataflow import ForwardAnalysis, solve_forward
from .base import (
    FlowRule,
    RawViolation,
    in_algorithm_core,
    register,
)

#: Method names that end a resource's obligation when called on it.
RELEASE_METHODS: FrozenSet[str] = frozenset(
    {"close", "delete", "discard", "seal"}
)

_DONE = "done"
_LIVE_PREFIX = "live@"

#: State: variable -> union of facts ("live@<line>" and/or "done").
_ResourceEnv = Dict[str, FrozenSet[str]]


class _ResourceAnalysis(ForwardAnalysis[_ResourceEnv]):
    """The live/done may-analysis described in the module docstring."""

    def __init__(self, acquirer_names: FrozenSet[str]) -> None:
        self.acquirer_names = acquirer_names

    def initial(self) -> _ResourceEnv:
        return {}

    def join(self, left: _ResourceEnv, right: _ResourceEnv) -> _ResourceEnv:
        if left == right:
            return left
        merged = dict(left)
        for var, facts in right.items():
            merged[var] = merged.get(var, frozenset()) | facts
        return merged

    def transfer(self, stmt: ast.stmt, state: _ResourceEnv) -> _ResourceEnv:
        return self._transfer(stmt, state, acquire=True)

    def transfer_exception(
        self, stmt: ast.stmt, state: _ResourceEnv
    ) -> _ResourceEnv:
        # The statement raised: releases and escapes were *attempted*
        # (close() failing still discharges the obligation — flagging
        # failed cleanup would double-report), but an acquiring
        # assignment never bound its resource.
        return self._transfer(stmt, state, acquire=False)

    def _acquires(self, value: ast.expr) -> bool:
        return (
            isinstance(value, ast.Call)
            and _bare_call_name(value) in self.acquirer_names
        )

    def _transfer(
        self, stmt: ast.stmt, state: _ResourceEnv, acquire: bool
    ) -> _ResourceEnv:
        tracked = {var for var in state}
        if not tracked and not (
            acquire
            and isinstance(stmt, ast.Assign)
            and self._acquires(stmt.value)
        ):
            return state

        updated = dict(state)
        expressions = list(own_expressions(stmt))

        # Receiver-position uses (w.method(...)): releases mark done,
        # other method calls leave the state alone.  Record the Name
        # node ids so the escape walk below can skip them.
        receiver_ids: Set[int] = set()
        for expr in expressions:
            for node in ast.walk(expr):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                ):
                    continue
                receiver = node.func.value
                receiver_ids.add(id(receiver))
                if (
                    node.func.attr in RELEASE_METHODS
                    and receiver.id in tracked
                ):
                    updated[receiver.id] = frozenset({_DONE})

        # Escapes: a tracked name read anywhere except receiver
        # position transfers ownership.
        for expr in expressions:
            for node in ast.walk(expr):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in tracked
                    and id(node) not in receiver_ids
                ):
                    updated[node.id] = frozenset({_DONE})

        # (Re)bindings: acquiring assignments start tracking; any other
        # assignment to a tracked name drops it (the binding is gone and
        # the may-analysis stays quiet rather than guessing).
        if isinstance(stmt, ast.Assign):
            is_acquire = acquire and self._acquires(stmt.value)
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    continue
                if is_acquire:
                    updated[target.id] = frozenset(
                        {f"{_LIVE_PREFIX}{stmt.lineno}"}
                    )
                elif target.id in tracked:
                    updated.pop(target.id, None)
        return updated


def leaked_at_exit(env: _ResourceEnv) -> Iterator[Tuple[str, int]]:
    """``(var, acquire_line)`` for each resource live-and-never-done."""
    for var in sorted(env):
        facts = env[var]
        if _DONE in facts:
            continue
        lines = [
            int(fact[len(_LIVE_PREFIX):])
            for fact in facts
            if fact.startswith(_LIVE_PREFIX)
        ]
        if lines:
            yield var, min(lines)


def _edge_leaks(
    cfg: "CFG",
    states: Dict[int, _ResourceEnv],
    analysis: _ResourceAnalysis,
) -> Iterator[Tuple[str, int, str]]:
    """``(var, acquire_line, exit_label)`` per leaking exit edge.

    Normal edges into ``EXIT`` are always checked.  Exception edges into
    ``RAISE`` are checked only when the raising statement dispatches to
    *no* handler (its only exceptional successor is ``RAISE``): when a
    handler exists, the leak question is answered by the handler body's
    own exits instead of the conservative bypass edge.
    """
    for exit_node, label in (
        (EXIT, "the normal return path"),
        (RAISE, "an exceptional path"),
    ):
        for source, kind in cfg.pred.get(exit_node, []):
            if exit_node == RAISE and any(
                target != RAISE and edge_kind == EXCEPTION
                for target, edge_kind in cfg.succ.get(source, [])
            ):
                continue  # dispatches to a handler; judged there
            in_state = states.get(source)
            if in_state is None:
                continue  # unreachable
            stmt = cfg.statements.get(source)
            if stmt is None:
                out_state = in_state
            elif kind == EXCEPTION:
                out_state = analysis.transfer_exception(stmt, in_state)
            else:
                out_state = analysis.transfer(stmt, in_state)
            for var, line in leaked_at_exit(out_state):
                yield var, line, label


@register
class ResourceLeakRule(FlowRule):
    """A resource acquired on some path must be released on every path."""

    code = "SEX601"
    name = "res-leak-on-exit"
    summary = (
        "a part file / edge file / writer / device acquired in a function "
        "must be sealed, closed, deleted or handed off on every path out "
        "of the function, including exception paths (may-analysis over "
        "the CFG; conditional release on any path is accepted)"
    )

    def applies_to(self, relpath: str) -> bool:
        return in_algorithm_core(relpath) or relpath.startswith("repro/apps/")

    def check_flow(
        self, module: ast.Module, relpath: str, context: ProjectContext
    ) -> Iterator[RawViolation]:
        acquirers = set(RESOURCE_CALL_NAMES)
        acquirers.update(
            name
            for name, summary in context.summaries.items()
            if summary.returns_resource
        )
        analysis = _ResourceAnalysis(frozenset(acquirers))
        for info in context.functions.get(relpath, []):
            states = solve_forward(info.cfg, analysis)
            leaks: Dict[Tuple[str, int], List[str]] = {}
            for var, line, label in _edge_leaks(info.cfg, states, analysis):
                labels = leaks.setdefault((var, line), [])
                if label not in labels:
                    labels.append(label)
            for (var, line), labels in sorted(leaks.items()):
                yield RawViolation(
                    code=self.code,
                    line=line,
                    column=1,
                    message=(
                        f"resource '{var}' acquired here in "
                        f"{info.qualname}() is never released on "
                        f"{' or '.join(labels)}; close/delete/discard/"
                        "seal it on every path out, or hand it off "
                        "(return it / store it) explicitly"
                    ),
                )
