"""Backend registry and selection for the columnar kernel layer.

A *kernel* bundles the per-edge hot operations the restructure, division
and BFS passes perform millions of times — unpacking a disk block into
columns (a fixed32 block, or a delta-varint body the backend may decline
back to the scalar decoder in :mod:`repro.storage.serialization`),
packing columns back to bytes, classifying a block of edges
against the in-memory spanning tree, collecting a block's cross edges or
the cut-label pairs of its S-edges, and routing a block's edges to their
owning parts.  Two backends exist:

* ``python`` — always available; stdlib-``array`` columns, scalar
  classification (the seed implementation's semantics, verbatim);
* ``numpy`` — optional; flat int32 columns via ``frombuffer``/``tobytes``,
  delta-varint bodies decoded in one array pass, and whole-block mask
  arithmetic for classification.

Selection is ``auto`` by default (numpy when importable), overridable per
:class:`~repro.storage.block_device.BlockDevice` or globally with the
``REPRO_KERNEL`` environment variable (``auto`` / ``python`` / ``numpy``).
Both backends are bit-for-bit equivalent: identical bytes on disk,
identical classification decisions, identical I/O accounting.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Protocol, Set, Tuple

from ..errors import ReproError

if TYPE_CHECKING:
    from ..core.classify import CutLabels, Preorder
    from ..core.tree import SpanningTree

#: Environment variable consulted when no explicit backend is requested.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Recognized backend names (``auto`` resolves to one of the other two).
KERNEL_NAMES = ("auto", "python", "numpy")

#: One classified slice of a block: ``(stop, counted, has_forward_cross,
#: cross_edges)`` where ``stop`` is the exclusive end index reached before
#: the batch capacity was exhausted, ``counted`` is how many non-tree,
#: non-self-loop edges the slice loaded, and ``cross_edges`` are the
#: forward-/backward-cross pairs (python ints, in scan order).
ClassifiedSlice = Tuple[int, int, bool, List[Tuple[int, int]]]


class Kernel(Protocol):
    """Structural interface every backend satisfies.

    Column and index types are backend-specific (stdlib ``array`` vs.
    numpy ``ndarray``; dict index vs. dense arrays), so they surface as
    ``Any`` here — the cross-backend contract is the *shape* of the
    operations and the :data:`ClassifiedSlice` result, which the
    differential tests pin bit-for-bit.
    """

    name: str

    def unpack_edge_columns(self, data: bytes) -> Tuple[Any, Any]:
        """Split packed edge bytes into ``(u, v)`` int32 columns."""

    def unpack_varint_columns(self, body: bytes) -> Optional[Tuple[Any, Any]]:
        """Decode a tag-stripped delta-varint block body into ``(u, v)``
        int32 columns, or return ``None`` to decline it.

        A decline sends the caller to the scalar decoder in
        ``repro.storage``, which decodes what a backend declines and
        raises every error, so this op never raises on a malformed body.
        The python backend always declines.
        """

    def pack_edge_columns(self, u_col: Any, v_col: Any) -> bytes:
        """Interleave two int32 columns back into on-disk edge bytes."""

    def pack_int_column(self, values: Any) -> bytes:
        """Pack one int sequence into little-endian int32 bytes.

        The single-column half of the edge codec.  No library path
        calls it; ``benchmarks/e2e/layers.py`` still wraps it.  Raises
        ``ValueError`` for values outside int32 range.
        """

    def int_column_from_buffer(self, buffer: Any, offset: int, count: int) -> Any:
        """Read ``count`` little-endian int32 values starting ``offset``
        *elements* (not bytes) into ``buffer``.

        Returns the backend's native column; the numpy backend returns a
        zero-copy view over ``buffer``, so callers must copy or consume
        the result before releasing the underlying memory.
        """

    def make_index(
        self, tree: "SpanningTree", preorder: "Optional[Preorder]" = None
    ) -> Any:
        """Build the classifier index of ``tree``.

        ``preorder`` is the tree's own :class:`~repro.core.classify.Preorder`
        when the caller has it (the in-memory DFS returns one with every
        tree it builds); without it the tree is walked once.
        """

    def classify_slice(
        self,
        index: Any,
        u_col: Any,
        v_col: Any,
        start: int,
        capacity: int,
    ) -> ClassifiedSlice:
        """Classify ``(u_col, v_col)[start:]`` until ``capacity`` edges load."""

    def make_columns(self, u_values: Any, v_values: Any) -> Tuple[Any, Any]:
        """Build backend-native ``(u, v)`` columns from plain int sequences."""

    def collect_cross_edges(
        self, index: Any, u_col: Any, v_col: Any
    ) -> List[Tuple[int, int]]:
        """Emit a block's forward-/backward-cross edges, as python-int
        pairs in scan order.

        Tree edges, forward (ancestor→descendant) edges, backward
        (descendant→ancestor) edges and self-loops all vanish inside the
        interval tests; only edges that cross subtrees survive.  ``index``
        is whatever :meth:`make_index` produced for the spanning tree.
        Division step 1 does not use it: :meth:`collect_cut_pairs` keeps
        one pair per S-edge instead of every cross edge.
        """

    def make_cut_index(self, labels: "CutLabels") -> Any:
        """Build the index :meth:`collect_cut_pairs` reads ``labels`` through."""

    def collect_cut_pairs(
        self, index: Any, u_col: Any, v_col: Any, pairs: Set[Tuple[int, int]]
    ) -> None:
        """Add a block's ``(c(u), c(v))`` pairs of unrelated cut nodes to
        ``pairs`` (python ints); ``c(x)`` is ``x``'s deepest cut ancestor.
        Exactly the cross edges whose LCA is an expanded cut node are kept,
        each with its pair's S-edge; ``pairs`` stays within ``|V(T_c)|²``.
        """

    def make_owner_index(self, owner: Any) -> Any:
        """Build a node→part routing index from an ``{node: part}`` mapping."""

    def make_level_column(self, levels: Any) -> Any:
        """Freeze a per-node level sequence (``-1`` = unreached) into the
        backend's native column for :meth:`relax_levels`.

        The BFS relaxation pass reads levels through this snapshot so a
        pass's proposals depend only on the levels *entering* the pass —
        the property that makes the result independent of block
        boundaries, codecs, and backends.
        """

    def relax_levels(
        self, level_col: Any, u_col: Any, v_col: Any
    ) -> List[Tuple[int, int, int]]:
        """One BFS relaxation step over a block of edges.

        For every edge ``(u, v)`` with ``u`` reached, the candidate level
        of ``v`` is ``level[u] + 1``; an edge *improves* ``v`` when ``v``
        is unreached or the candidate beats ``v``'s frozen level.  Returns
        one ``(v, level, parent)`` triple of python ints per improved
        destination, sorted by ``v`` ascending, where ``level`` is the
        block's minimal candidate for ``v`` and ``parent`` is the tail of
        the *first edge in scan order* achieving it — the deterministic
        tie-break both backends must reproduce bit-for-bit.
        """

    def route_edges(
        self, owner_index: Any, u_col: Any, v_col: Any
    ) -> List[Tuple[int, Any, Any]]:
        """Group a block's part-internal edges by owning part.

        Returns ``(part_key, u_column, v_column)`` triples sorted
        ascending by part key; edges whose endpoints live in different
        parts (or outside every part) are dropped.  Within each part,
        scan order is preserved, so routed part files are byte-identical
        across backends.
        """


_kernels: Dict[str, Kernel] = {}


def _python_kernel() -> Kernel:
    if "python" not in _kernels:
        from .python_kernel import PythonKernel

        _kernels["python"] = PythonKernel()
    return _kernels["python"]


def _numpy_kernel() -> Kernel:
    if "numpy" not in _kernels:
        from .numpy_kernel import NumpyKernel  # raises ImportError w/o numpy

        _kernels["numpy"] = NumpyKernel()
    return _kernels["numpy"]


def numpy_available() -> bool:
    """Whether the numpy backend can be constructed in this environment."""
    try:
        _numpy_kernel()
    except ImportError:
        return False
    return True


def available_backends() -> Tuple[str, ...]:
    """Names of the backends that resolve successfully, python first."""
    names = ["python"]
    if numpy_available():
        names.append("numpy")
    return tuple(names)


def resolve_kernel(name: Optional[str] = None) -> Kernel:
    """Resolve a backend name (or ``None``) to a kernel instance.

    ``None`` falls back to ``$REPRO_KERNEL``, then ``auto``.  ``auto``
    prefers numpy when importable and silently degrades to python
    otherwise; asking for ``numpy`` explicitly when it is missing raises.

    Raises:
        ReproError: unknown name, or an explicit backend is unavailable.
    """
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR) or "auto"
    name = name.strip().lower()
    if name not in KERNEL_NAMES:
        known = ", ".join(KERNEL_NAMES)
        raise ReproError(f"unknown kernel backend {name!r}; known: {known}")
    if name == "python":
        return _python_kernel()
    if name == "numpy":
        try:
            return _numpy_kernel()
        except ImportError:
            raise ReproError(
                "kernel backend 'numpy' requested (argument or REPRO_KERNEL) "
                "but numpy is not importable; install the 'numpy' extra or "
                "use REPRO_KERNEL=python"
            ) from None
    # auto
    try:
        return _numpy_kernel()
    except ImportError:
        return _python_kernel()
