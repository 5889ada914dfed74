"""Semi-external planar graph testing.

Planarity testing appears twice in the paper's motivation for DFS (the
abstract and §1).  It has a natural semi-external decomposition:

1. **one scan** deduplicates and counts the simple undirected edges
   (``sort(m)`` I/Os).  Euler's bound says a simple planar graph has
   ``m <= 3n - 6``; a billion-edge graph on few nodes is rejected without
   ever being loaded — for dense inputs the scan *is* the whole test;
2. a graph that survives the bound has ``m < 3n`` edges, i.e.
   ``|G| < 4n = O(n)`` — within the semi-external memory regime — so it
   is loaded and decided by the **left-right (LR) planarity test**
   (Brandes' formulation of de Fraysseix–Rosenstiehl), itself a pure DFS
   algorithm: orient by DFS, sort by nesting depth, and maintain
   conflict pairs of return-edge intervals.

The LR implementation below is iterative throughout (no recursion-depth
limits) and tests only (no embedding is produced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..graph.disk_graph import DiskGraph
from ..storage.external_sort import sort_edge_file

Edge = Tuple[int, int]


@dataclass
class PlanarityReport:
    """Outcome of :func:`check_planarity`."""

    planar: bool
    reason: str
    simple_edge_count: int
    loaded: bool  # False when the Euler bound decided without loading


# ----------------------------------------------------------------------
# The left-right planarity test (Brandes' pseudocode, iterative)
# ----------------------------------------------------------------------
class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self):
        return self.low is None and self.high is None

    def conflicting(self, b, lowpt):
        """Whether this interval conflicts with return point of edge b."""
        return not self.empty() and lowpt[self.high] > lowpt[b]


class _ConflictPair:
    __slots__ = ("L", "R")

    def __init__(self, L=None, R=None):
        self.L = L if L is not None else _Interval()
        self.R = R if R is not None else _Interval()

    def swap(self):
        self.L, self.R = self.R, self.L

    def lowest(self, lowpt):
        if self.L.empty():
            return lowpt[self.R.low]
        if self.R.empty():
            return lowpt[self.L.low]
        return min(lowpt[self.L.low], lowpt[self.R.low])


class _NotPlanar(Exception):
    pass


class _LRPlanarity:
    """Left-right planarity test over a simple undirected adjacency."""

    def __init__(self, node_count: int, adjacency: Dict[int, List[int]]):
        self.n = node_count
        self.adj = adjacency
        self.height: Dict[int, Optional[int]] = {v: None for v in adjacency}
        self.parent_edge: Dict[int, Optional[Edge]] = {v: None for v in adjacency}
        self.lowpt: Dict[Edge, int] = {}
        self.lowpt2: Dict[Edge, int] = {}
        self.nesting_depth: Dict[Edge, int] = {}
        self.oriented: Set[Edge] = set()
        self.ordered_adj: Dict[int, List[int]] = {}
        self.ref: Dict[Edge, Optional[Edge]] = {}
        self.lowpt_edge: Dict[Edge, Edge] = {}
        self.S: List[_ConflictPair] = []
        self.stack_bottom: Dict[Edge, Optional[_ConflictPair]] = {}

    # -- phase 1: orientation ------------------------------------------
    def _dfs_orientation(self, root: int) -> None:
        adj = self.adj
        height = self.height
        lowpt = self.lowpt
        lowpt2 = self.lowpt2
        nesting_depth = self.nesting_depth
        parent_edge = self.parent_edge
        oriented = self.oriented

        height[root] = 0
        dfs_stack = [root]
        ind: Dict[int, int] = {}
        skip_init: Set[Edge] = set()

        while dfs_stack:
            v = dfs_stack.pop()
            e = parent_edge[v]
            neighbors = adj[v]
            position = ind.get(v, 0)
            descend = False
            while position < len(neighbors):
                w = neighbors[position]
                vw = (v, w)
                if vw not in skip_init:
                    if vw in oriented or (w, v) in oriented:
                        position += 1
                        continue
                    oriented.add(vw)
                    lowpt[vw] = height[v]
                    lowpt2[vw] = height[v]
                    if height[w] is None:  # tree edge: descend into w
                        parent_edge[w] = vw
                        height[w] = height[v] + 1
                        skip_init.add(vw)
                        ind[v] = position
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        descend = True
                        break
                    lowpt[vw] = height[w]  # back edge
                # post-processing of vw (after recursion for tree edges)
                nesting_depth[vw] = 2 * lowpt[vw]
                if lowpt2[vw] < height[v]:
                    nesting_depth[vw] += 1  # chordal
                if e is not None:
                    if lowpt[vw] < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[vw])
                        lowpt[e] = lowpt[vw]
                    elif lowpt[vw] > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], lowpt[vw])
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                position += 1
            if not descend:
                ind[v] = position

    # -- phase 2: testing -----------------------------------------------
    def _top(self) -> Optional[_ConflictPair]:
        return self.S[-1] if self.S else None

    def _add_constraints(self, ei: Edge, e: Edge) -> None:
        lowpt = self.lowpt
        S = self.S
        ref = self.ref
        P = _ConflictPair()
        # merge return edges of ei into P.R
        while True:
            Q = S.pop()
            if not Q.L.empty():
                Q.swap()
            if not Q.L.empty():
                raise _NotPlanar
            if lowpt[Q.R.low] > lowpt[e]:  # merge intervals
                if P.R.empty():
                    P.R.high = Q.R.high
                else:
                    ref[P.R.low] = Q.R.high
                P.R.low = Q.R.low
            else:  # align
                ref[Q.R.low] = self.lowpt_edge[e]
            if self._top() is self.stack_bottom[ei]:
                break
        # merge conflicting return edges of e1,...,e_{i-1} into P.L
        while self._top() is not None and (
            self._top().L.conflicting(ei, lowpt)
            or self._top().R.conflicting(ei, lowpt)
        ):
            Q = S.pop()
            if Q.R.conflicting(ei, lowpt):
                Q.swap()
            if Q.R.conflicting(ei, lowpt):
                raise _NotPlanar
            # merge interval below lowpt(ei) into P.R
            ref[P.R.low] = Q.R.high
            if Q.R.low is not None:
                P.R.low = Q.R.low
            if P.L.empty():
                P.L.high = Q.L.high
            else:
                ref[P.L.low] = Q.L.high
            P.L.low = Q.L.low
        if not (P.L.empty() and P.R.empty()):
            S.append(P)

    def _trim_back_edges(self, u: int) -> None:
        """Remove back edges returning to parent u (when leaving v)."""
        lowpt = self.lowpt
        S = self.S
        height_u = self.height[u]
        # drop entire conflict pairs
        while S and S[-1].lowest(lowpt) == height_u:
            P = S.pop()
            if P.L.low is not None:
                self.side[P.L.low] = -1
        if S:
            P = S.pop()
            # trim left interval
            while P.L.high is not None and P.L.high[1] == u:
                P.L.high = self.ref.get(P.L.high)
            if P.L.high is None and P.L.low is not None:
                # just emptied
                self.ref[P.L.low] = P.R.low
                self.side[P.L.low] = -1
                P.L.low = None
            # trim right interval
            while P.R.high is not None and P.R.high[1] == u:
                P.R.high = self.ref.get(P.R.high)
            if P.R.high is None and P.R.low is not None:
                self.ref[P.R.low] = P.L.low
                self.side[P.R.low] = -1
                P.R.low = None
            S.append(P)

    def _dfs_testing(self, root: int) -> None:
        height = self.height
        lowpt = self.lowpt
        parent_edge = self.parent_edge
        S = self.S
        stack_bottom = self.stack_bottom
        lowpt_edge = self.lowpt_edge

        dfs_stack = [root]
        ind: Dict[int, int] = {}
        skip_init: Set[Edge] = set()

        while dfs_stack:
            v = dfs_stack.pop()
            e = parent_edge[v]
            neighbors = self.ordered_adj[v]
            position = ind.get(v, 0)
            descend = False
            while position < len(neighbors):
                w = neighbors[position]
                ei = (v, w)
                if ei not in skip_init:
                    stack_bottom[ei] = self._top()
                    if ei == parent_edge[w]:  # tree edge: descend
                        skip_init.add(ei)
                        ind[v] = position
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        descend = True
                        break
                    # back edge
                    lowpt_edge[ei] = ei
                    S.append(_ConflictPair(R=_Interval(ei, ei)))
                # Integrate new return edges.  ``lowpt[ei] < height[v]``
                # implies v is not a root (height 0 is minimal), so the
                # parent edge ``e`` exists in both branches.
                if lowpt[ei] < height[v]:
                    if position == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    else:
                        self._add_constraints(ei, e)
                position += 1
            if descend:
                continue
            ind[v] = position
            # leaving v: remove back edges returning to the parent
            if e is not None:
                u = e[0]
                self._trim_back_edges(u)
                if lowpt[e] < height[u]:  # e has return edge
                    top = self._top()
                    if top is not None:
                        hl = top.L.high
                        hr = top.R.high
                        if hl is not None and (
                            hr is None or lowpt[hl] > lowpt[hr]
                        ):
                            self.ref[e] = hl
                        else:
                            self.ref[e] = hr

    # -- driver ----------------------------------------------------------
    def is_planar(self) -> bool:
        # Euler bound (cheap second guard; the caller already applied it)
        edge_total = sum(len(t) for t in self.adj.values()) // 2
        if self.n > 2 and edge_total > 3 * self.n - 6:
            return False
        self.side: Dict[Edge, int] = {}
        roots = []
        for v in self.adj:
            if self.height[v] is None:
                roots.append(v)
                self._dfs_orientation(v)
        # sort adjacency by nesting depth
        nesting = self.nesting_depth
        for v in self.adj:
            outgoing = [w for w in self.adj[v] if (v, w) in self.oriented]
            outgoing.sort(key=lambda w: nesting[(v, w)])
            self.ordered_adj[v] = outgoing
        try:
            for root in roots:
                self._dfs_testing(root)
        except _NotPlanar:
            return False
        return True


def lr_planarity(node_count: int, edges) -> bool:
    """In-memory LR planarity test over an edge iterable (simple graph
    is derived internally: duplicates, directions, self-loops collapse)."""
    seen: Set[Edge] = set()
    adjacency: Dict[int, List[int]] = {v: [] for v in range(node_count)}
    for u, v in edges:
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    if node_count > 2 and len(seen) > 3 * node_count - 6:
        return False
    return _LRPlanarity(node_count, adjacency).is_planar()


def check_planarity(graph: DiskGraph) -> PlanarityReport:
    """Semi-external planarity test of the underlying undirected graph.

    Takes no memory budget: what survives the Euler bound has ``|G| < 4n``.

    Args:
        graph: the (directed) graph on disk; direction is ignored.

    Returns:
        A :class:`PlanarityReport`; ``loaded`` is False when the Euler
        bound rejected the graph from the dedup scan alone.
    """
    node_count = graph.node_count
    # one external-sort pass gives the simple undirected edge count
    canonical = DiskGraph.from_edges(
        graph.device,
        node_count,
        (((u, v) if u < v else (v, u)) for u, v in graph.scan() if u != v),
        validate=False,
    )
    try:
        unique = sort_edge_file(
            graph.device,
            canonical.edge_file,
            memory_edges=max(4096, node_count),
            unique=True,
        )
    finally:
        canonical.delete()
    try:
        simple_m = unique.edge_count
        if node_count > 2 and simple_m > 3 * node_count - 6:
            return PlanarityReport(
                planar=False,
                reason=f"Euler bound: {simple_m} > 3n-6 = {3 * node_count - 6}",
                simple_edge_count=simple_m,
                loaded=False,
            )
        planar = lr_planarity(node_count, unique.scan())
        reason = "left-right test " + ("passed" if planar else "found a conflict")
        return PlanarityReport(
            planar=planar, reason=reason, simple_edge_count=simple_m, loaded=True
        )
    finally:
        unique.delete()
