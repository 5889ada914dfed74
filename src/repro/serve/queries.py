"""Query engine over a loaded :class:`~repro.serve.store.TreeArtifact`.

Each query kind maps request parameters (flat string maps, as they
arrive from a query string or JSON body) onto one artifact method and
shapes the answer as a JSON-safe dict.  All answers come from resident
columns in O(answer) time; the engine performs **zero** raw-graph I/O —
the HTTP tests assert this through the store device's IOStats.

Malformed parameters raise :class:`~repro.errors.QueryError` with a
stable machine-readable ``code`` (``bad-query``, ``bad-node``,
``column-missing``, ``source-not-pinned``);
:mod:`repro.serve.app` maps codes onto HTTP statuses.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import NotADAGError, QueryError
from .store import TreeArtifact

#: Cap on one response's node list; clients page with offset/limit.
MAX_SLICE = 100_000


def _int_param(
    params: Mapping[str, str], key: str, default: Optional[int] = None
) -> int:
    raw = params.get(key)
    if raw is None or raw == "":
        if default is None:
            raise QueryError(f"missing required parameter {key!r}")
        return default
    try:
        return int(raw)
    except ValueError:
        raise QueryError(
            f"parameter {key!r} must be an integer, got {raw!r}"
        ) from None


def _slice_params(params: Mapping[str, str]) -> Tuple[int, int]:
    offset = _int_param(params, "offset", 0)
    limit = _int_param(params, "limit", 0)
    if offset < 0 or limit < 0:
        raise QueryError("offset/limit must be non-negative")
    if limit == 0 or limit > MAX_SLICE:
        limit = MAX_SLICE
    return offset, limit


class QueryEngine:
    """Dispatches named queries against one loaded artifact."""

    def __init__(self, artifact: TreeArtifact) -> None:
        self.artifact = artifact
        self._handlers: Dict[
            str, Callable[[Mapping[str, str]], Dict[str, Any]]
        ] = {
            "order": self._query_order,
            "position": self._query_position,
            "ancestor": self._query_ancestor,
            "path": self._query_path,
            "toposort": self._query_toposort,
            "topo-position": self._query_topo_position,
            "cycle": self._query_cycle,
            "scc": self._query_scc,
            "reachable": self._query_reachable,
            "reachable-set": self._query_reachable_set,
        }

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted(self._handlers))

    def execute(
        self, kind: str, params: Mapping[str, str]
    ) -> Dict[str, Any]:
        """Run one query; raises QueryError/NotADAGError on bad input."""
        handler = self._handlers.get(kind)
        if handler is None:
            raise QueryError(
                f"unknown query kind {kind!r} (known: {', '.join(self.kinds)})",
                code="unknown-query",
            )
        answer = handler(params)
        answer["query"] = kind
        if self.artifact.ref is not None:
            answer["artifact"] = str(self.artifact.ref)
        return answer

    # -- handlers ------------------------------------------------------
    def _query_order(self, params: Mapping[str, str]) -> Dict[str, Any]:
        offset, limit = _slice_params(params)
        nodes = self.artifact.order_slice(offset, limit)
        return {
            "offset": offset,
            "total": self.artifact.node_count,
            "nodes": nodes,
        }

    def _query_position(self, params: Mapping[str, str]) -> Dict[str, Any]:
        node = _int_param(params, "node")
        return {"node": node, "position": self.artifact.position_of(node)}

    def _query_ancestor(self, params: Mapping[str, str]) -> Dict[str, Any]:
        u = _int_param(params, "u")
        v = _int_param(params, "v")
        return {"u": u, "v": v, "ancestor": self.artifact.is_ancestor(u, v)}

    def _query_path(self, params: Mapping[str, str]) -> Dict[str, Any]:
        u = _int_param(params, "u")
        v = _int_param(params, "v")
        return {"u": u, "v": v, "path": self.artifact.tree_path(u, v)}

    def _query_toposort(self, params: Mapping[str, str]) -> Dict[str, Any]:
        offset, limit = _slice_params(params)
        try:
            nodes = self.artifact.toposort_slice(offset, limit)
        except NotADAGError as error:
            raise QueryError(str(error), code="not-a-dag") from error
        return {
            "offset": offset,
            "total": self.artifact.node_count,
            "nodes": nodes,
        }

    def _query_topo_position(
        self, params: Mapping[str, str]
    ) -> Dict[str, Any]:
        node = _int_param(params, "node")
        try:
            position = self.artifact.topo_position(node)
        except NotADAGError as error:
            raise QueryError(str(error), code="not-a-dag") from error
        return {"node": node, "position": position}

    def _query_cycle(self, params: Mapping[str, str]) -> Dict[str, Any]:
        has = self.artifact.has_cycle()
        return {
            "has_cycle": has,
            "witness": self.artifact.cycle_witness if has else None,
        }

    def _query_scc(self, params: Mapping[str, str]) -> Dict[str, Any]:
        if "u" in params or "v" in params:
            u = _int_param(params, "u")
            v = _int_param(params, "v")
            return {"u": u, "v": v, "same_scc": self.artifact.same_scc(u, v)}
        if "node" in params:
            node = _int_param(params, "node")
            return {
                "node": node,
                "scc": self.artifact.scc_of(node),
                "size": self.artifact.scc_size(node),
                "in_cycle": self.artifact.in_cycle(node),
            }
        return {
            "scc_count": self.artifact.scc_count,
            "nodes": self.artifact.node_count,
        }

    def _query_reachable(self, params: Mapping[str, str]) -> Dict[str, Any]:
        u = _int_param(params, "u")
        v = _int_param(params, "v")
        verdict, proof = self.artifact.reachable(u, v)
        return {
            "u": u,
            "v": v,
            "reachable": verdict,
            "certain": verdict is not None,
            "proof": proof or None,
        }

    def _query_reachable_set(
        self, params: Mapping[str, str]
    ) -> Dict[str, Any]:
        source = _int_param(params, "source")
        nodes = self.artifact.reachable_set(source)
        offset, limit = _slice_params(params)
        return {
            "source": source,
            "count": len(nodes),
            "offset": offset,
            "nodes": nodes[offset:offset + limit],
        }


#: The query kinds one engine answers (for docs and the CLI).
QUERY_KINDS: Tuple[str, ...] = (
    "ancestor",
    "cycle",
    "order",
    "path",
    "position",
    "reachable",
    "reachable-set",
    "scc",
    "toposort",
    "topo-position",
)
