"""SEX5xx — parallelism containment.

The divide & conquer recursion conquers a division's parts one after
another, in part order, exactly as the paper's Algorithm 2 does: the
merge consumes the part DFS-Trees in that order, every block transfer
is charged to the run's one :class:`~repro.storage.io_stats.IOStats`,
and every span nests under the run's one tracer (exact leaf-phase
tiling).  A process pool or shared-memory segment anywhere in the
package would sidestep all three — the classic way a "parallel
speedup" silently stops being the same computation — so this rule
forbids process-spawning and shared-memory imports everywhere.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from .base import RawViolation, Rule, register

#: Top-level modules whose import means "this file may spawn processes"
#: (``multiprocessing`` also covers its ``shared_memory`` submodule).
_PROCESS_MODULES: Tuple[str, ...] = ("multiprocessing", "concurrent")


def _module_root(name: str) -> str:
    return name.split(".", 1)[0]


@register
class ProcessPoolConfinementRule(Rule):
    """Process-spawning or shared-memory imports anywhere in the package."""

    code = "SEX501"
    name = "par-process-pool"
    summary = (
        "multiprocessing/concurrent.futures imports are forbidden: division "
        "parts run sequentially in part order, and pooled work would bypass "
        "the run's single I/O counter and span tree"
    )

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _module_root(alias.name) in _PROCESS_MODULES:
                        yield self.violation(
                            node,
                            f"import of {alias.name}; division parts run "
                            "sequentially, without a process pool",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and _module_root(node.module) in _PROCESS_MODULES:
                    yield self.violation(
                        node,
                        f"import from {node.module}; division parts run "
                        "sequentially, without a process pool",
                    )
