"""Versioned artifact store for sealed spanning trees.

The paper's economics are *compute once, query many times*: a
semi-external DFS pays ``O(sort(E))``-ish block I/O once, and every
order / ancestor / toposort / SCC question afterwards is answerable from
the ``O(n)`` resident result.  This module makes that split durable.

An **artifact** is a directory holding a manifest plus CRC-framed
columnar payloads, published atomically under ``<root>/<name>/v<NNNNNN>``::

    <root>/
      <name>/
        v000001/
          manifest.json   # control-plane metadata (schema, digests, counts)
          order.col       # DFS/BFS total order, one int32 per position
          pre.col         # preorder number per node (interval labelling)
          size.col        # subtree size per node
          parent.col      # tree parent per node (-1 at forest roots)
          topo.col        # topological order (DAG artifacts only)
          scc.col         # SCC id per node (when sealed with SCCs)
          selfloop.col    # 1 where the graph has a self-loop
          reach-<s>.col   # exact reachability bitset for pinned source s

The spanning tree has no payload of its own: ``parent`` and ``pre``
determine it (children in ``pre`` order under their parent, forest roots
under the manifest's ``root``, which is the virtual ``γ`` when it lies
outside the node ids), and every artifact carries both columns.

Payload files are written through :class:`~repro.storage.BlockDevice`
(every block framed, CRC'd, charged to IOStats, and fault-injectable);
the manifest records a SHA-256 per payload so a swapped or truncated
file is detected at open time even when each individual frame is intact.
Publishing stages the version in a dot-prefixed temp directory and
``os.rename``\\ s it into place, so readers never observe a partial
version.  Versions are immutable once published; re-publishing a name
allocates the next version number.

:class:`TreeArtifact` is the loaded, read-only handle: dense columns
indexed by node id, answering queries in O(answer) time with **zero**
raw-graph I/O.  Its methods are the query API for a sealed run; the
``repro.apps`` functions compute from a graph instead (see docs/API.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import zlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.classify import IntervalIndex
from ..core.tree import SpanningTree
from ..errors import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactNotFound,
    NotADAGError,
    QueryError,
)
from ..storage.block_device import DEFAULT_BLOCK_ELEMENTS, BlockDevice
from ..storage.serialization import pack_ints, unpack_ints

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..algorithms.base import RunResult
    from ..graph.disk_graph import DiskGraph

#: Manifest schema version; bumped on any incompatible layout change.
SCHEMA_VERSION = 2

MANIFEST_FILE = "manifest.json"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")
_VERSION_DIR_RE = re.compile(r"^v(\d{6})$")
_NO_PARENT = -1


@dataclass(frozen=True)
class ArtifactRef:
    """Resolved address of one published artifact version."""

    name: str
    version: int
    path: str

    def __str__(self) -> str:
        return f"{self.name}@v{self.version}"


def parse_ref(ref: str) -> Tuple[str, Optional[int]]:
    """Split ``"name"`` / ``"name@v3"`` / ``"name@3"`` into name + version.

    Raises:
        ArtifactError: when the reference is syntactically invalid.
    """
    name, sep, tail = ref.partition("@")
    if not _NAME_RE.match(name):
        raise ArtifactError(f"invalid artifact name {name!r}")
    if not sep:
        return name, None
    digits = tail[1:] if tail[:1] == "v" else tail
    if not digits.isdigit():
        raise ArtifactError(f"invalid artifact version {tail!r} in {ref!r}")
    return name, int(digits)


def _json_safe_options(options: object) -> Optional[Dict[str, Any]]:
    """Render a RunOptions-ish object as a JSON-safe string map."""
    if options is None:
        return None
    if isinstance(options, Mapping):
        items = dict(options)
    else:
        items = {
            key: value
            for key, value in vars(options).items()
            if not key.startswith("_")
        }
    return {
        key: value
        for key, value in sorted(items.items())
        if isinstance(value, (str, int, float, bool)) or value is None
    }


class TreeArtifact:
    """A sealed, read-only spanning-tree artifact with query columns.

    All columns are dense lists indexed by node id (``0..n-1``); the
    virtual root ``γ`` never appears in a column.  Query methods answer
    in O(answer) time from resident state and never touch the raw
    graph.  Column-less artifacts (lightweight checkpoints sealed by a
    run) still expose the tree; column queries raise
    :class:`~repro.errors.QueryError` with code ``column-missing``.
    """

    def __init__(
        self,
        manifest: Dict[str, Any],
        tree: SpanningTree,
        *,
        order: Optional[List[int]] = None,
        pre: Optional[List[int]] = None,
        size: Optional[List[int]] = None,
        parent: Optional[List[int]] = None,
        topo: Optional[List[int]] = None,
        scc: Optional[List[int]] = None,
        selfloop: Optional[List[int]] = None,
        reach: Optional[Dict[int, List[int]]] = None,
        ref: Optional[ArtifactRef] = None,
    ) -> None:
        self.manifest = manifest
        self.tree = tree
        self.order = order
        self.pre = pre
        self.size = size
        self.parent = parent
        self.topo = topo
        self.scc = scc
        self.selfloop = selfloop
        self.reach: Dict[int, List[int]] = dict(reach or {})
        self.ref = ref
        self._position: Optional[List[int]] = None
        self._topo_position: Optional[List[int]] = None
        self._scc_sizes: Optional[List[int]] = None
        if order is not None:
            position = [-1] * self.node_count
            for index, node in enumerate(order):
                position[node] = index
            self._position = position
        if topo is not None:
            topo_position = [-1] * self.node_count
            for index, node in enumerate(topo):
                topo_position[node] = index
            self._topo_position = topo_position
        if scc is not None:
            count = int(self.manifest.get("scc_count") or 0)
            sizes = [0] * count
            for component in scc:
                sizes[component] += 1
            self._scc_sizes = sizes

    # -- metadata ------------------------------------------------------
    @property
    def node_count(self) -> int:
        graph = self.manifest.get("graph") or {}
        return int(graph.get("nodes", 0))

    @property
    def edge_count(self) -> int:
        graph = self.manifest.get("graph") or {}
        return int(graph.get("edges", 0))

    @property
    def kind(self) -> str:
        return str(self.manifest.get("kind", ""))

    @property
    def algorithm(self) -> str:
        return str(self.manifest.get("algorithm", ""))

    @property
    def is_dag(self) -> Optional[bool]:
        value = self.manifest.get("is_dag")
        return None if value is None else bool(value)

    @property
    def cycle_witness(self) -> Optional[List[int]]:
        value = self.manifest.get("cycle_witness")
        return None if value is None else [int(node) for node in value]

    @property
    def scc_count(self) -> Optional[int]:
        value = self.manifest.get("scc_count")
        return None if value is None else int(value)

    @property
    def sources(self) -> List[int]:
        return sorted(self.reach)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary of what this artifact can answer."""
        return {
            "ref": None if self.ref is None else str(self.ref),
            "kind": self.kind,
            "algorithm": self.algorithm,
            "nodes": self.node_count,
            "edges": self.edge_count,
            "is_dag": self.is_dag,
            "scc_count": self.scc_count,
            "sources": self.sources,
            "columns": sorted(
                dict(self.manifest.get("columns") or {})
            ),
        }

    # -- validation helpers --------------------------------------------
    def _check_node(self, node: int, role: str = "node") -> None:
        if not 0 <= node < self.node_count:
            raise QueryError(
                f"{role} {node} out of range for {self.node_count} nodes",
                code="bad-node",
            )

    def _require(self, column: Optional[List[int]], name: str) -> List[int]:
        if column is None:
            raise QueryError(
                f"artifact was sealed without the {name!r} column",
                code="column-missing",
            )
        return column

    # -- order ---------------------------------------------------------
    def order_slice(self, offset: int = 0, limit: int = 0) -> List[int]:
        """Nodes in the sealed total order, from ``offset`` (0 = all)."""
        order = self._require(self.order, "order")
        if offset < 0 or limit < 0:
            raise QueryError("offset/limit must be non-negative")
        end = len(order) if limit == 0 else min(len(order), offset + limit)
        return order[offset:end]

    def position_of(self, node: int) -> int:
        """Position of ``node`` in the sealed total order."""
        self._check_node(node)
        position = self._require(self._position, "order")[node]
        if position < 0:
            raise QueryError(
                f"node {node} is not covered by the sealed order",
                code="bad-node",
            )
        return position

    # -- ancestry ------------------------------------------------------
    def is_ancestor(self, u: int, v: int) -> bool:
        """Whether ``u`` is a (non-strict) tree ancestor of ``v``."""
        self._check_node(u, "u")
        self._check_node(v, "v")
        pre = self._require(self.pre, "pre")
        size = self._require(self.size, "size")
        return pre[u] <= pre[v] < pre[u] + size[u]

    def tree_path(self, u: int, v: int) -> Optional[List[int]]:
        """Tree path ``u -> ... -> v`` when ``u`` is an ancestor, else None."""
        if not self.is_ancestor(u, v):
            return None
        parent = self._require(self.parent, "parent")
        path = [v]
        current = v
        while current != u:
            current = parent[current]
            if current == _NO_PARENT:
                raise ArtifactIntegrityError(
                    f"parent chain from {v} escaped the forest before "
                    f"reaching ancestor {u}"
                )
            path.append(current)
        path.reverse()
        return path

    # -- toposort ------------------------------------------------------
    def toposort_slice(self, offset: int = 0, limit: int = 0) -> List[int]:
        """Topological order slice; raises NotADAGError on cyclic graphs."""
        if self.is_dag is False:
            witness = self.cycle_witness or []
            raise NotADAGError(
                f"graph has a cycle: witness {witness}"
            )
        topo = self._require(self.topo, "topo")
        if offset < 0 or limit < 0:
            raise QueryError("offset/limit must be non-negative")
        end = len(topo) if limit == 0 else min(len(topo), offset + limit)
        return topo[offset:end]

    def topo_position(self, node: int) -> int:
        """Position of ``node`` in the sealed topological order."""
        self._check_node(node)
        if self.is_dag is False:
            raise NotADAGError(
                f"graph has a cycle: witness {self.cycle_witness or []}"
            )
        position = self._require(self._topo_position, "topo")[node]
        if position < 0:
            raise QueryError(
                f"node {node} is not covered by the sealed topo order",
                code="bad-node",
            )
        return position

    # -- cycles / SCCs -------------------------------------------------
    def has_cycle(self) -> bool:
        """Whether the sealed graph contains a directed cycle."""
        if self.is_dag is None:
            raise QueryError(
                "artifact was sealed without cycle verification",
                code="column-missing",
            )
        return not self.is_dag

    def find_cycle(self) -> Optional[List[int]]:
        """The sealed cycle witness, or None for acyclic graphs."""
        if self.has_cycle():
            return self.cycle_witness
        return None

    def scc_of(self, node: int) -> int:
        """SCC id of ``node`` (ids index the sealed largest-first list)."""
        self._check_node(node)
        return self._require(self.scc, "scc")[node]

    def scc_size(self, node: int) -> int:
        """Size of the SCC containing ``node``."""
        component = self.scc_of(node)
        sizes = self._scc_sizes or []
        return sizes[component]

    def same_scc(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are strongly connected."""
        return self.scc_of(u) == self.scc_of(v)

    def in_cycle(self, node: int) -> bool:
        """Whether ``node`` lies on some directed cycle."""
        if self.scc_size(node) > 1:
            return True
        selfloop = self._require(self.selfloop, "selfloop")
        return bool(selfloop[node])

    # -- reachability --------------------------------------------------
    def reachable_set(self, source: int) -> List[int]:
        """All nodes reachable from a *pinned* source, ascending."""
        self._check_node(source, "source")
        column = self.reach.get(source)
        if column is None:
            raise QueryError(
                f"source {source} was not pinned when the artifact was "
                f"sealed (pinned: {self.sources})",
                code="source-not-pinned",
            )
        return [node for node, bit in enumerate(column) if bit]

    def reachable(self, u: int, v: int) -> Tuple[Optional[bool], str]:
        """Decide ``u ->* v`` from sealed state alone.

        Returns ``(verdict, proof)`` where ``verdict`` is ``True`` /
        ``False`` when the columns certify an answer and ``None`` when
        they cannot (the caller may recompute from the graph).  Proofs:
        ``identity``, ``pinned-source``, ``tree-path``, ``same-scc``,
        ``topo-order``.
        """
        self._check_node(u, "u")
        self._check_node(v, "v")
        if u == v:
            return True, "identity"
        pinned = self.reach.get(u)
        if pinned is not None:
            return bool(pinned[v]), "pinned-source"
        if self.pre is not None and self.is_ancestor(u, v):
            return True, "tree-path"
        if self.scc is not None and self.scc_of(u) == self.scc_of(v):
            return True, "same-scc"
        if self.is_dag and self._topo_position is not None \
                and self._topo_position[v] < self._topo_position[u]:
            return False, "topo-order"
        return None, ""


def _tree_columns(
    tree: SpanningTree, n: int
) -> Tuple[List[int], List[int], List[int]]:
    """The ``pre``, ``size`` and ``parent`` columns of ``tree`` over ids ``0..n-1``.

    ``parent`` and ``pre`` are the tree's only stored form (see
    :func:`_tree_from_columns`), so the tree must fit them: every node
    below the root is a real node with an id in ``0..n-1``, and a virtual
    root has an id outside that range.  Nodes the root does not reach get
    ``pre`` -1 and are not stored.

    Raises:
        ArtifactError: a rootless tree, a virtual node below the root, or
            a node id that does not fit the columns.
    """
    root = tree.root
    if root is None:
        raise ArtifactError("cannot store a rootless tree")
    index = IntervalIndex(tree)
    pre = [-1] * n
    size = [0] * n
    parent = [_NO_PARENT] * n
    for node, number in index.pre.items():
        if tree.is_virtual(node):
            if node != root:
                raise ArtifactError(
                    f"virtual node {node} lies below the root; only the "
                    "root of a stored tree may be virtual"
                )
            if 0 <= node < n:
                raise ArtifactError(
                    f"virtual root {node} collides with node ids 0..{n - 1}"
                )
            continue
        if not 0 <= node < n:
            raise ArtifactError(f"node {node} lies outside node ids 0..{n - 1}")
        pre[node] = number
        size[node] = index.size[node]
        up = tree.parent[node]
        if up is not None and not tree.is_virtual(up):
            parent[node] = up
    return pre, size, parent


def _tree_from_columns(
    root: int, parent_col: List[int], pre_col: List[int], context: str
) -> SpanningTree:
    """Rebuild the tree :func:`_tree_columns` stored.

    Appending each node to its parent's child list in ``pre`` order
    restores every sibling order; a parent of -1 below the root means the
    root itself.  The root is virtual exactly when its id lies outside
    the columns.

    Raises:
        ArtifactIntegrityError: the columns are not a preorder numbering
            of a tree.
    """
    n = len(parent_col)
    if len(pre_col) != n:
        raise ArtifactIntegrityError(
            f"{context}: the parent and pre columns differ in length"
        )
    by_pre = [-1] * (n + 1)
    for node, number in enumerate(pre_col):
        if number < 0:
            continue
        if number > n or by_pre[number] >= 0:
            raise ArtifactIntegrityError(
                f"{context}: the pre column is not a preorder numbering"
            )
        by_pre[number] = node
    parent: Dict[int, Optional[int]] = {root: None}
    child_lists: Dict[int, List[int]] = {}
    for node in by_pre:
        if node < 0 or node == root:
            continue
        up = parent_col[node]
        if up == _NO_PARENT:
            up = root
        if up not in parent:
            raise ArtifactIntegrityError(
                f"{context}: node {node} precedes its parent {up} in preorder"
            )
        parent[node] = up
        children = child_lists.get(up)
        if children is None:
            child_lists[up] = [node]
        else:
            children.append(node)
    virtual = set() if 0 <= root < n else {root}
    return SpanningTree.from_structure(root, parent, child_lists, virtual)


def _check_columns(
    manifest: Dict[str, Any],
    tree: SpanningTree,
    columns: Dict[str, List[int]],
    reach: Dict[int, List[int]],
    context: str,
) -> None:
    """Reject column values no sealed run writes, naming the column.

    Per-node columns hold ``graph.nodes`` values; ``order`` and ``topo``
    hold distinct node ids; ``scc`` ids lie below ``scc_count``; bit
    columns hold 0 or 1 and pin a node; ``pre`` and ``size`` are the
    rebuilt tree's preorder numbers and subtree sizes (-1 and 0 off it).

    Raises:
        ArtifactIntegrityError: the first column that fails a check.
    """
    n = int((manifest.get("graph") or {}).get("nodes", 0))

    def fail(name: str, problem: str) -> None:
        raise ArtifactIntegrityError(f"{context}: the {name} column {problem}")

    per_node = [
        (name, columns[name])
        for name in ("pre", "size", "parent", "scc", "selfloop")
        if name in columns
    ]
    bits = [("selfloop", columns["selfloop"])] if "selfloop" in columns else []
    for source in sorted(reach):
        name = f"reach-{source}"
        if not 0 <= source < n:
            fail(name, f"pins source {source} outside nodes 0..{n - 1}")
        per_node.append((name, reach[source]))
        bits.append((name, reach[source]))
    for name, values in per_node:
        if len(values) != n:
            fail(name, f"holds {len(values)} values for {n} nodes")
    for name in ("order", "topo"):
        values = columns.get(name)
        if values is not None and (
            len(set(values)) != len(values)
            or not all(0 <= node < n for node in values)
        ):
            fail(name, f"does not hold distinct node ids 0..{n - 1}")
    scc_count = int(manifest.get("scc_count") or 0)
    if "scc" in columns and not all(
        0 <= component < scc_count for component in columns["scc"]
    ):
        fail("scc", f"holds an id outside 0..{scc_count - 1}")
    for name, values in bits:
        if not all(bit in (0, 1) for bit in values):
            fail(name, "holds a value other than 0 or 1")
    index = IntervalIndex(tree)
    expected = {"pre": [-1] * n, "size": [0] * n}
    for node, number in index.pre.items():
        if 0 <= node < n:
            expected["pre"][node] = number
            expected["size"][node] = index.size[node]
    for name, values in expected.items():
        if name in columns and columns[name] != values:
            fail(name, "does not match the tree the parent column holds")


def _graph_digest(graph: "DiskGraph") -> int:
    """CRC32 over the edge stream (codec- and kernel-independent).

    Chunking does not affect the digest — int32 packing is fixed-width —
    so the same edge sequence hashes identically under any block size,
    codec, or kernel backend.  Costs one full edge scan (charged).
    """
    digest = 0
    for u_col, v_col in graph.edge_file.scan_columns():
        digest = zlib.crc32(pack_ints(list(u_col)), digest)
        digest = zlib.crc32(pack_ints(list(v_col)), digest)
    return digest


def seal_result(
    graph: "DiskGraph",
    result: "RunResult",
    *,
    memory: Optional[int] = None,
    sources: Sequence[int] = (),
    with_scc: bool = True,
    graph_digest: bool = True,
    options: object = None,
) -> TreeArtifact:
    """Build a full query artifact from a finished run.

    One verification scan classifies every edge against the tree
    (acyclicity + cycle witness + self-loops); SCCs are computed only
    when the graph turned out cyclic (on a DAG every node is its own
    SCC), which needs a ``memory`` budget for the backward Kosaraju
    pass.

    Args:
        graph: the graph the run traversed (scanned for verification).
        result: the finished run (tree + order + costs).
        memory: semi-external budget for the SCC pass; required only
            when ``with_scc`` and the graph has a cycle.
        sources: node ids to pin exact reachability bitsets for.
        with_scc: seal SCC membership columns.
        graph_digest: record a CRC32 of the edge stream (one extra scan).
        options: the RunOptions the run used, recorded in the manifest.

    Raises:
        QueryError: when SCCs are requested on a cyclic graph without a
            ``memory`` budget.
    """
    tree = result.tree
    n = graph.node_count
    order = list(result.order)
    pre, size, parent = _tree_columns(tree, n)

    # Verification scan: the first witness in scan order (a self-loop,
    # or the tree path closed by a back edge).
    selfloop = [0] * n
    witness: Optional[List[int]] = None
    for u, v in graph.scan():
        if u == v:
            selfloop[u] = 1
            if witness is None:
                witness = [u]
        elif witness is None and pre[v] <= pre[u] < pre[v] + size[v]:
            path = [u]
            current = u
            while current != v:
                current = tree.parent[current]
                path.append(current)
            path.reverse()
            witness = path
    is_dag = witness is None

    topo: Optional[List[int]] = None
    if is_dag:
        finish = [
            node for node in tree.postorder() if not tree.is_virtual(node)
        ]
        finish.reverse()
        topo = finish

    scc: Optional[List[int]] = None
    scc_count: Optional[int] = None
    if with_scc:
        if is_dag:
            # Every node is its own SCC; id nodes by traversal order so
            # ids are deterministic without a Kosaraju pass.
            scc = [0] * n
            for position, node in enumerate(order):
                scc[node] = position
            scc_count = n
        else:
            if memory is None:
                raise QueryError(
                    "sealing SCCs on a cyclic graph needs a memory "
                    "budget; pass memory= or with_scc=False",
                    code="bad-query",
                )
            from ..apps.components import strongly_connected_components

            components = strongly_connected_components(graph, memory)
            scc = [0] * n
            for component_id, component in enumerate(components):
                for node in component:
                    scc[node] = component_id
            scc_count = len(components)

    reach: Dict[int, List[int]] = {}
    if sources:
        from ..apps.reachability import reachable_mask

        for source in sorted(set(sources)):
            if not 0 <= source < n:
                raise QueryError(
                    f"pinned source {source} out of range for {n} nodes",
                    code="bad-node",
                )
            reach[source] = list(reachable_mask(graph, source))

    manifest: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": f"{result.algorithm}-tree" if result.algorithm else "tree",
        "algorithm": result.algorithm,
        "graph": {
            "nodes": n,
            "edges": graph.edge_count,
            "crc32": _graph_digest(graph) if graph_digest else None,
        },
        "root": tree.root,
        "kernel": result.kernel,
        "block_codec": result.block_codec,
        "io": {
            "reads": result.io.reads,
            "writes": result.io.writes,
            "passes": result.passes,
        },
        "options": _json_safe_options(options),
        "details": {
            key: value
            for key, value in sorted(result.details.items())
            if isinstance(value, (str, int, float, bool))
        },
        "is_dag": is_dag,
        "cycle_witness": witness,
        "scc_count": scc_count,
    }
    return TreeArtifact(
        manifest,
        tree,
        order=order,
        pre=pre,
        size=size,
        parent=parent,
        topo=topo,
        scc=scc,
        selfloop=selfloop,
        reach=reach,
    )


class ArtifactStore:
    """Filesystem-backed, versioned store of sealed tree artifacts.

    Payloads move through a :class:`BlockDevice` so store I/O is framed,
    CRC'd, charged to :attr:`stats`, and participates in fault
    injection.  Pass the run's own device to charge sealing I/O to the
    run (the algorithms do this); with no device the store owns a
    private one rooted at the store directory.
    """

    def __init__(
        self,
        root: str,
        *,
        device: Optional[BlockDevice] = None,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
    ) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        if device is None:
            self._device = BlockDevice(
                block_elements=block_elements, directory=self.root
            )
            self._owns_device = True
        else:
            self._device = device
            self._owns_device = False

    @classmethod
    def for_run(cls, device: BlockDevice) -> "ArtifactStore":
        """The store a run seals its own trees into: ``<device>/artifacts``.

        Shares the run's device, so sealing I/O is charged to the run's
        IOStats and participates in its fault plan — checkpointing costs
        exactly what the paper's model says it costs.
        """
        return cls(os.path.join(device.directory, "artifacts"), device=device)

    # -- lifecycle -----------------------------------------------------
    @property
    def device(self) -> BlockDevice:
        return self._device

    @property
    def stats(self) -> Any:
        """The backing device's :class:`~repro.storage.IOStats`."""
        return self._device.stats

    def close(self) -> None:
        if self._owns_device:
            self._device.close()

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- catalogue -----------------------------------------------------
    def names(self) -> List[str]:
        """Artifact names with at least one published version, sorted."""
        found = []
        for entry in sorted(os.listdir(self.root)):
            if _NAME_RE.match(entry) and os.path.isdir(
                os.path.join(self.root, entry)
            ) and self.versions(entry):
                found.append(entry)
        return found

    def versions(self, name: str) -> List[int]:
        """Published versions of ``name``, ascending (empty if none)."""
        directory = os.path.join(self.root, name)
        if not os.path.isdir(directory):
            return []
        versions = []
        for entry in os.listdir(directory):
            match = _VERSION_DIR_RE.match(entry)
            if match and os.path.isfile(
                os.path.join(directory, entry, MANIFEST_FILE)
            ):
                versions.append(int(match.group(1)))
        return sorted(versions)

    def latest_version(self, name: str) -> int:
        versions = self.versions(name)
        if not versions:
            raise ArtifactNotFound(f"no artifact named {name!r} in {self.root}")
        return versions[-1]

    def _version_dir(self, name: str, version: int) -> str:
        return os.path.join(self.root, name, f"v{version:06d}")

    # -- publish -------------------------------------------------------
    def publish(self, artifact: TreeArtifact, name: str) -> ArtifactRef:
        """Atomically publish ``artifact`` as the next version of ``name``."""
        if not _NAME_RE.match(name):
            raise ArtifactError(f"invalid artifact name {name!r}")
        if artifact.parent is None or artifact.pre is None:
            raise ArtifactError(
                "an artifact stores its tree as the parent and pre columns; "
                "build it with seal_result or publish_tree"
            )
        name_dir = os.path.join(self.root, name)
        os.makedirs(name_dir, exist_ok=True)
        existing = self.versions(name)
        version = (existing[-1] + 1) if existing else 1
        staging = os.path.join(name_dir, f".tmp-v{version:06d}")
        if os.path.isdir(staging):
            shutil.rmtree(staging)
        os.makedirs(staging)
        published = False
        try:
            manifest = dict(artifact.manifest)
            manifest["schema"] = SCHEMA_VERSION
            manifest["name"] = name
            manifest["version"] = version

            columns: Dict[str, Dict[str, Any]] = {}
            for column_name, values in self._column_items(artifact):
                filename = f"{column_name}.col"
                sha, count = self._write_values(
                    os.path.join(staging, filename), values
                )
                columns[column_name] = {
                    "file": filename, "sha256": sha, "count": count,
                }
            manifest["columns"] = columns

            body = json.dumps(manifest, indent=2, sort_keys=True)
            # repro: allow[SEX101] control-plane manifest text, not modelled block I/O
            with open(os.path.join(staging, MANIFEST_FILE), "w",
                      encoding="utf-8") as handle:
                handle.write(body + "\n")

            final = self._version_dir(name, version)
            os.rename(staging, final)
            published = True
        finally:
            if not published:
                # Any failure (an OSError, a device's RetriesExhausted, an
                # interrupt) leaves no partial version behind.
                shutil.rmtree(staging, ignore_errors=True)
        ref = ArtifactRef(name=name, version=version, path=final)
        artifact.ref = ref
        artifact.manifest = manifest
        return ref

    def publish_tree(
        self,
        tree: SpanningTree,
        name: str,
        *,
        kind: str = "checkpoint",
        algorithm: str = "",
        node_count: int = 0,
        details: Optional[Mapping[str, Any]] = None,
    ) -> ArtifactRef:
        """Publish a tree-only artifact: the ``parent`` and ``pre`` columns.

        This is the lightweight path edge-by-batch uses to seal its
        checkpoints mid-flight: two columns plus a manifest, no
        verification scan, ``2·⌈n/B⌉`` block writes.  Open it later and
        re-seal with :func:`seal_result` to add query columns.

        Args:
            node_count: ``n``, the real node ids ``0..n-1`` the columns
                cover; 0 counts the real nodes the root reaches.

        Raises:
            ArtifactError: the tree does not fit the columns (see
                :func:`_tree_columns`): a virtual node below the root, or
                a real node id outside ``0..n-1``.
        """
        if not node_count:
            node_count = sum(
                1 for node in tree.preorder() if not tree.is_virtual(node)
            )
        pre, _, parent = _tree_columns(tree, node_count)
        manifest: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "algorithm": algorithm,
            "graph": {"nodes": node_count, "edges": 0, "crc32": None},
            "root": tree.root,
            "kernel": self._device.kernel.name,
            "block_codec": self._device.block_codec,
            "io": None,
            "options": None,
            "details": dict(details or {}),
            "is_dag": None,
            "cycle_witness": None,
            "scc_count": None,
        }
        artifact = TreeArtifact(manifest, tree, pre=pre, parent=parent)
        return self.publish(artifact, name)

    # -- open ----------------------------------------------------------
    def open(self, ref: str, version: Optional[int] = None) -> TreeArtifact:
        """Load an artifact by ``"name"`` / ``"name@vN"`` (read-only).

        Every payload's SHA-256 and value count are checked against the
        manifest; each block's CRC frame is checked by the device.  The
        tree is rebuilt from the ``parent`` and ``pre`` columns under the
        manifest's ``root``, and every column's values are checked
        against it and the manifest (see :func:`_check_columns`).

        Raises:
            ArtifactNotFound: unknown name or version.
            ArtifactIntegrityError: manifest/payload validation failed.
        """
        name, parsed = parse_ref(ref)
        if version is None:
            version = parsed if parsed is not None else self.latest_version(name)
        directory = self._version_dir(name, version)
        manifest = self.read_manifest(name, version)

        columns: Dict[str, List[int]] = {}
        reach: Dict[int, List[int]] = {}
        manifest_columns = manifest.get("columns") or {}
        for column_name in sorted(manifest_columns):
            meta = manifest_columns[column_name]
            column = self._read_values(
                os.path.join(directory, str(meta["file"])),
                expected_sha=str(meta["sha256"]),
                expected_count=int(meta["count"]),
            )
            if column_name.startswith("reach-"):
                reach[int(column_name[len("reach-"):])] = column
            else:
                columns[column_name] = column

        root = manifest.get("root")
        if not isinstance(root, int) or not {"parent", "pre"} <= columns.keys():
            raise ArtifactIntegrityError(
                f"{directory}: manifest lacks the root or the parent and "
                "pre columns that hold the tree"
            )
        tree = _tree_from_columns(
            root, columns["parent"], columns["pre"], context=directory
        )
        _check_columns(manifest, tree, columns, reach, context=directory)
        return TreeArtifact(
            manifest,
            tree,
            order=columns.get("order"),
            pre=columns.get("pre"),
            size=columns.get("size"),
            parent=columns.get("parent"),
            topo=columns.get("topo"),
            scc=columns.get("scc"),
            selfloop=columns.get("selfloop"),
            reach=reach,
            ref=ArtifactRef(name=name, version=version, path=directory),
        )

    def read_manifest(self, name: str, version: Optional[int] = None) -> Dict[str, Any]:
        """Parse and schema-check one version's manifest."""
        if version is None:
            version = self.latest_version(name)
        directory = self._version_dir(name, version)
        path = os.path.join(directory, MANIFEST_FILE)
        if not os.path.isfile(path):
            raise ArtifactNotFound(f"no artifact {name}@v{version} in {self.root}")
        try:
            # repro: allow[SEX101] control-plane manifest text, not modelled block I/O
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except ValueError as error:
            raise ArtifactIntegrityError(
                f"{path}: manifest is not valid JSON ({error})"
            ) from error
        if not isinstance(manifest, dict):
            raise ArtifactIntegrityError(f"{path}: manifest is not an object")
        if manifest.get("schema") != SCHEMA_VERSION:
            raise ArtifactIntegrityError(
                f"{path}: unsupported manifest schema "
                f"{manifest.get('schema')!r} (supported: {SCHEMA_VERSION})"
            )
        return manifest

    # -- payload plumbing ----------------------------------------------
    @staticmethod
    def _column_items(
        artifact: TreeArtifact,
    ) -> List[Tuple[str, List[int]]]:
        items: List[Tuple[str, List[int]]] = []
        for column_name in ("order", "pre", "size", "parent", "topo",
                            "scc", "selfloop"):
            values = getattr(artifact, column_name)
            if values is not None:
                items.append((column_name, values))
        for source in sorted(artifact.reach):
            items.append((f"reach-{source}", artifact.reach[source]))
        return items

    def _write_values(
        self, path: str, values: List[int]
    ) -> Tuple[str, int]:
        """Write ``values`` as framed blocks; returns (sha256, count)."""
        digest = hashlib.sha256()
        step = self._device.block_elements
        # repro: allow[SEX101] artifact frames flow through device.write_block, so every block IS charged
        with open(path, "wb") as handle:
            for start in range(0, len(values), step):
                payload = pack_ints(values[start:start + step])
                digest.update(payload)
                self._device.write_block(handle, payload, context=path)
        return digest.hexdigest(), len(values)

    def _read_values(
        self, path: str, *, expected_sha: str, expected_count: int
    ) -> List[int]:
        """Read framed blocks back; verifies sha256 + value count."""
        if not os.path.isfile(path):
            raise ArtifactIntegrityError(f"{path}: payload file is missing")
        digest = hashlib.sha256()
        values: List[int] = []
        # repro: allow[SEX101] artifact frames flow through device.read_block, so every block IS charged
        with open(path, "rb") as handle:
            while True:
                chunk = self._device.read_block(handle, context=path)
                if chunk is None:
                    break
                digest.update(chunk)
                values.extend(unpack_ints(chunk))
        if expected_count >= 0 and len(values) != expected_count:
            raise ArtifactIntegrityError(
                f"{path}: expected {expected_count} values, got {len(values)}"
            )
        if digest.hexdigest() != expected_sha:
            raise ArtifactIntegrityError(
                f"{path}: payload sha256 does not match the manifest"
            )
        return values
