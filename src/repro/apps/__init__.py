"""DFS-powered applications from the paper's motivation list — topological
sort, connected components (weak, strong, biconnected), bipartiteness,
articulation points and bridges, Eulerian paths, planarity testing, and
reachability — all computed from graphs that live on disk.

Questions a sealed run already answers (its cycle witness, topological
order and pinned reachable sets) are methods of
:class:`~repro.serve.TreeArtifact` instead.
"""

from .bipartite import BipartitenessReport, check_bipartite
from .euler import EulerReport, check_eulerian, eulerian_path
from .connectivity import (
    ConnectivityReport,
    biconnected_components,
    connectivity_report,
)
from .components import (
    UnionFind,
    strongly_connected_components,
    weakly_connected_components,
)
from .planarity import PlanarityReport, check_planarity, lr_planarity
from .reachability import reachable_mask
from .toposort import sealed_topological_order

__all__ = [
    "BipartitenessReport",
    "ConnectivityReport",
    "EulerReport",
    "PlanarityReport",
    "UnionFind",
    "biconnected_components",
    "check_bipartite",
    "check_eulerian",
    "check_planarity",
    "connectivity_report",
    "eulerian_path",
    "lr_planarity",
    "reachable_mask",
    "sealed_topological_order",
    "strongly_connected_components",
    "weakly_connected_components",
]
