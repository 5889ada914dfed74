"""Typed run options for :func:`repro.semi_external_dfs`.

:class:`RunOptions` replaces the loose ``**kwargs`` surface: every knob
an algorithm accepts is a declared, documented field, so a typo is a
construction-time ``TypeError`` instead of a silently ignored kwarg, and
an option the chosen algorithm does not support is a ``ValueError``
naming the ones it does.  The kernel and the block codec are not run
options: they are set on the :class:`~repro.storage.BlockDevice`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from .core.tree import SpanningTree
    from .obs import Tracer


@dataclass(frozen=True)
class RunOptions:
    """Every tunable of a semi-external DFS run, in one frozen value.

    Attributes:
        max_passes: cap on restructure passes before
            :class:`~repro.errors.ConvergenceError` (default ``2n + 16``).
        deadline_seconds: abort with :class:`~repro.errors.ConvergenceError`
            once this much wall-clock has elapsed (DNF semantics).
        order: explicit initial visit order (batch baseline only).
        checkpoint_every: checkpoint the tree every N passes (batch
            baseline only).
        initial_tree: resume from a previously checkpointed tree (batch
            baseline only).
        tracer: a :class:`repro.obs.Tracer` to receive span events
            and metrics for this run.

    Fields left at their defaults are never forwarded, so a default
    value an algorithm does not understand (e.g. ``order`` for
    ``divide-td``) is not an error — only an *explicit* unsupported
    setting is.
    """

    max_passes: Optional[int] = None
    deadline_seconds: Optional[float] = None
    order: Optional[Sequence[int]] = None
    checkpoint_every: Optional[int] = None
    initial_tree: Optional["SpanningTree"] = None
    tracer: Optional["Tracer"] = None

    def replace(self, **changes: object) -> "RunOptions":
        """A copy with the given fields changed (frozen-safe update)."""
        return dataclasses.replace(self, **changes)

    def to_kwargs(
        self,
        supported: AbstractSet[str],
        algorithm: str,
    ) -> Dict[str, object]:
        """Render the non-default fields as kwargs for ``algorithm``.

        Raises:
            ValueError: if a field was explicitly set (differs from its
                default) but is not in ``supported`` — the message names
                the options the algorithm does understand.
        """
        kwargs: Dict[str, object] = {}
        for name, value, default in self._items():
            if value is default:
                continue
            if name not in supported:
                known = ", ".join(sorted(supported))
                raise ValueError(
                    f"option {name!r} is not supported by algorithm "
                    f"{algorithm!r}; supported options: {known}"
                )
            kwargs[name] = value
        return kwargs

    def _items(self) -> Tuple[Tuple[str, object, object], ...]:
        """(name, value, default) for every declared option field."""
        return tuple(
            (f.name, getattr(self, f.name), f.default)
            for f in dataclasses.fields(self)
        )
