"""The algorithm registry: declared specs instead of a bare name→callable dict.

Each algorithm is described by an :class:`AlgorithmSpec` — canonical
name, aliases (the paper calls the batch baseline ``SEMI-DFS``), the
runner callable, the set of :class:`~repro.options.RunOptions` fields it
understands, and a one-line description for ``--help`` output.  The
:class:`AlgorithmRegistry` resolves names and aliases and drives the
CLI's ``--algorithm`` choices and ``repro compare`` enumeration.  Third
parties add entries with :func:`register_algorithm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

if TYPE_CHECKING:
    from .algorithms.base import RunResult

#: The runner signature every registered algorithm implements:
#: ``runner(graph, memory, start=..., **option_kwargs) -> RunResult``
#: (a :class:`~repro.algorithms.base.DFSResult` for the DFS family, a
#: :class:`~repro.algorithms.base.BFSResult` for semi-external BFS).
AlgorithmRunner = Callable[..., "RunResult"]

#: Options every algorithm understands.
BASE_OPTIONS = frozenset({"max_passes", "deadline_seconds", "tracer"})


@dataclass(frozen=True)
class AlgorithmSpec:
    """Declared metadata for one registered DFS algorithm.

    Attributes:
        name: canonical registry name (``divide-td``).
        runner: the callable implementing the algorithm.
        description: one line for CLI help and ``repro compare`` output.
        aliases: alternative lookup names (``semi-dfs``).
        options: the :class:`~repro.options.RunOptions` field names the
            runner accepts; explicitly setting any other option raises.
        slow: excluded from ``repro compare`` sweeps unless explicitly
            requested (the quadratic edge-by-edge heuristic).
    """

    name: str
    runner: AlgorithmRunner
    description: str
    aliases: Tuple[str, ...] = ()
    options: "frozenset[str]" = field(default=BASE_OPTIONS)
    slow: bool = False


class AlgorithmRegistry:
    """Name → algorithm resolution with alias support.

    :meth:`names` lists every name and alias; :meth:`specs` yields each
    algorithm once.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, AlgorithmSpec] = {}
        self._by_name: Dict[str, AlgorithmSpec] = {}

    def register(self, spec: AlgorithmSpec) -> AlgorithmSpec:
        """Add ``spec``; every name and alias must be unused."""
        names = (spec.name,) + spec.aliases
        for name in names:
            if name in self._by_name:
                raise ValueError(f"algorithm name {name!r} is already registered")
        self._specs[spec.name] = spec
        for name in names:
            self._by_name[name] = spec
        return spec

    def spec(self, name: str) -> AlgorithmSpec:
        """Resolve a canonical name or alias to its spec.

        Raises:
            ValueError: for unknown names, listing the registered ones.
        """
        try:
            return self._by_name[name]
        except KeyError:
            known = ", ".join(self.names())
            raise ValueError(
                f"unknown algorithm {name!r}; known: {known}"
            ) from None

    def specs(self) -> List[AlgorithmSpec]:
        """Every registered spec once, in registration order."""
        return list(self._specs.values())

    def names(self) -> List[str]:
        """Every canonical name and alias :meth:`spec` resolves, sorted."""
        return sorted(self._by_name)

    def __repr__(self) -> str:
        return f"AlgorithmRegistry({self.names()})"
