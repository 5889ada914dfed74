"""The on-disk graph handle the semi-external algorithms operate on.

A :class:`DiskGraph` is the pair the paper's problem statement fixes: a node
count ``n`` (nodes are implicit, ``0 .. n-1``) and an edge set on disk.  Only
the node count, not the edges, is assumed to fit in memory.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from ..errors import InvalidGraphError
from ..storage.block_device import BlockDevice
from ..storage.edge_file import EdgeFile
from .digraph import Digraph

Edge = Tuple[int, int]


class DiskGraph:
    """A directed graph whose edge set lives on a :class:`BlockDevice`.

    Construct via :meth:`from_edges` (streams straight to disk) or
    :meth:`from_digraph`.
    """

    def __init__(self, device: BlockDevice, node_count: int, edge_file: EdgeFile) -> None:
        if node_count < 0:
            raise InvalidGraphError("node_count must be non-negative")
        if not edge_file.sealed:
            raise InvalidGraphError("DiskGraph requires a sealed edge file")
        self.device = device
        self.node_count = node_count
        self.edge_file = edge_file

    @classmethod
    def from_edges(
        cls,
        device: BlockDevice,
        node_count: int,
        edges: Iterable[Edge],
        validate: bool = True,
    ) -> "DiskGraph":
        """Stream ``edges`` to a fresh edge file on ``device``.

        Args:
            validate: check every endpoint against ``node_count`` while
                writing (cheap; disable only for trusted re-materialization).
        """
        edge_file = device.create_edge_file()
        if validate:
            for u, v in edges:
                if not (0 <= u < node_count and 0 <= v < node_count):
                    edge_file.delete()
                    raise InvalidGraphError(
                        f"edge ({u}, {v}) out of range for {node_count} nodes"
                    )
                edge_file.append(u, v)
        else:
            edge_file.extend(edges)
        return cls(device, node_count, edge_file.seal())

    @classmethod
    def from_digraph(cls, device: BlockDevice, graph: Digraph) -> "DiskGraph":
        """Materialize an in-memory :class:`Digraph` to disk."""
        return cls.from_edges(device, graph.node_count, graph.edges(), validate=False)

    # ------------------------------------------------------------------
    @property
    def edge_count(self) -> int:
        """``m = |E|``."""
        return self.edge_file.edge_count

    @property
    def size(self) -> int:
        """``|G| = |V| + |E|`` (the paper's size measure)."""
        return self.node_count + self.edge_count

    def scan(self) -> Iterator[Edge]:
        """Scan all edges, paying ``ceil(m / B)`` read I/Os."""
        return self.edge_file.scan()

    def load(self) -> Digraph:
        """Read the whole graph into memory (paying the full scan cost)."""
        graph = Digraph(self.node_count)
        for u, v in self.scan():
            graph.add_edge(u, v)
        return graph

    def delete(self) -> None:
        """Remove the backing edge file."""
        self.edge_file.delete()

    def __repr__(self) -> str:
        return f"DiskGraph(n={self.node_count}, m={self.edge_count})"
