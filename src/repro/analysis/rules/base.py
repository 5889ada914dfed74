"""Rule framework for the semi-external-model conformance checker.

A :class:`Rule` inspects one parsed module and yields
:class:`RawViolation` records (location + message; the engine attaches
the file path and applies waivers).  Rules are registered in a module
registry keyed by their ``SEX`` code so the CLI, the docs generator and
the waiver validator all see the same inventory.

Scoping vocabulary (``repro/…`` paths are computed from the *last*
``repro`` component of a file's path, so fixture trees under a temp
directory scope exactly like the real package):

* ``STORAGE_LAYER`` — where raw file primitives are legal, because every
  transfer there is framed, CRC-checked and charged to
  :class:`~repro.storage.io_stats.IOStats`.
* ``ALGORITHM_PATHS`` — the semi-external core, where only ``k·|V|``
  state may live in memory and results must be deterministic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..callgraph import ProjectContext

#: Path prefixes where raw file I/O is allowed: the storage substrate and
#: the text edge-list loader.  Everything else must go through BlockDevice.
STORAGE_LAYER_PREFIXES: Tuple[str, ...] = ("repro/storage/",)
STORAGE_LAYER_FILES: Tuple[str, ...] = ("repro/graph/io.py",)

#: Path prefixes holding the semi-external algorithm core, where the
#: memory-discipline and determinism rules apply.
ALGORITHM_PATH_PREFIXES: Tuple[str, ...] = ("repro/algorithms/", "repro/core/")

#: Path prefixes of the observability layer (span tracing, metrics,
#: profiles).  Wall-clock reads there are purely observational by
#: construction — they land in event records and never feed tree
#: construction — so the SEX3xx wall-clock rule exempts them without
#: per-call waivers.
OBSERVABILITY_PATH_PREFIXES: Tuple[str, ...] = ("repro/obs/",)

#: Attribute names that return a block-charged edge iterator; wrapping one
#: in a materializer is an O(E) memory-model breach.
SCAN_METHOD_NAMES: Tuple[str, ...] = ("scan", "scan_blocks", "scan_columns")

#: Path prefixes of the serving layer.  Network listeners live in exactly
#: one package so every served answer demonstrably comes from a sealed,
#: checksummed artifact — a socket opened next to an algorithm could leak
#: unsealed state or un-charged I/O out of the cost model (the SEX5xx
#: containment family).
SERVE_LAYER_PREFIXES: Tuple[str, ...] = ("repro/serve/",)

#: The designated in-memory solver: the one module allowed to accumulate
#: scan-derived adjacency into memory, because it runs only after the
#: recursion has proved the part fits the budget (|V|+|E| ≤ memory).
#: The flow-sensitive materialization rule (SEX211) exempts it so every
#: other accumulation site must either stream or route through it.
INMEMORY_SOLVER_FILES: Tuple[str, ...] = ("repro/core/inmemory.py",)


@dataclass(frozen=True)
class RawViolation:
    """A rule hit before the engine attaches the file path / waivers."""

    code: str
    line: int
    column: int
    message: str


class Rule:
    """Base class: one ``SEX`` code, a scope predicate, and a checker."""

    #: Rule code, ``SEX`` + three digits (family encoded in the hundreds).
    code: str = ""
    #: Short human name (kebab-case, stable; used in docs and ``--list-rules``).
    name: str = ""
    #: One-line description of what the rule enforces and why.
    summary: str = ""

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule runs against the file at ``relpath``."""
        return True

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        """Yield every violation of this rule in ``module``."""
        raise NotImplementedError

    def violation(self, node: ast.AST, message: str) -> RawViolation:
        """Build a :class:`RawViolation` anchored at ``node``."""
        return RawViolation(
            code=self.code,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class FlowRule(Rule):
    """A rule that needs CFGs and cross-function taint, not just the AST.

    Flow rules receive a :class:`~repro.analysis.callgraph.ProjectContext`
    (parsed modules, per-function CFGs, call summaries) through
    :meth:`check_flow`.  When invoked through the plain :meth:`check`
    interface — single-file analysis with no surrounding project — they
    build a single-file context on the fly, so taint still crosses calls
    *within* the file but summaries from sibling files are absent.
    """

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        from ..callgraph import context_from_modules

        context = context_from_modules({relpath: module})
        return self.check_flow(module, relpath, context)

    def check_flow(
        self, module: ast.Module, relpath: str, context: "ProjectContext"
    ) -> Iterator[RawViolation]:
        """Yield violations using project-wide flow facts."""
        raise NotImplementedError


def in_storage_layer(relpath: str) -> bool:
    """Whether raw file primitives are legal at ``relpath``."""
    return relpath.startswith(STORAGE_LAYER_PREFIXES) or relpath in STORAGE_LAYER_FILES


def in_algorithm_core(relpath: str) -> bool:
    """Whether ``relpath`` is part of the semi-external algorithm core."""
    return relpath.startswith(ALGORITHM_PATH_PREFIXES)


def in_observability_layer(relpath: str) -> bool:
    """Whether ``relpath`` is part of the observability layer."""
    return relpath.startswith(OBSERVABILITY_PATH_PREFIXES)


def in_serve_layer(relpath: str) -> bool:
    """Whether ``relpath`` may open network listeners/sockets."""
    return relpath.startswith(SERVE_LAYER_PREFIXES)


#: Registry of checkable rules, keyed by code (populated by ``register``).
RULES: Dict[str, Rule] = {}

#: Codes the engine itself emits (waiver hygiene + parse failures); they
#: participate in waiver validation but have no AST checker.
META_CODES: Dict[str, str] = {
    "SEX001": "waiver has an empty or malformed reason/code list",
    "SEX002": "waiver names a rule code that does not exist",
    "SEX003": "waiver suppresses nothing (stale waiver)",
    "SEX004": "file could not be parsed as Python",
}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and index a rule by its code."""
    rule = rule_class()
    if not rule.code or not rule.name:
        raise ValueError(f"rule {rule_class.__name__} must define code and name")
    if rule.code in RULES or rule.code in META_CODES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return rule_class


def known_codes() -> Tuple[str, ...]:
    """Every valid code a waiver may name, sorted."""
    return tuple(sorted(set(RULES) | set(META_CODES)))


def call_name(node: ast.Call) -> str:
    """The called name for ``name(...)`` calls, else ``""``."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    return ""


def attribute_call(node: ast.Call) -> Tuple[str, str]:
    """``(base, attr)`` for ``base.attr(...)`` calls with a Name base.

    Returns ``("", attr)`` when the base is a more complex expression and
    ``("", "")`` when the call is not an attribute call at all.
    """
    if not isinstance(node.func, ast.Attribute):
        return "", ""
    base = node.func.value
    if isinstance(base, ast.Name):
        return base.id, node.func.attr
    return "", node.func.attr


def walk_calls(module: ast.Module) -> Iterator[ast.Call]:
    """Every :class:`ast.Call` in the module, in document order."""
    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            yield node


ScopePredicate = Callable[[str], bool]
