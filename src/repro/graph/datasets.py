"""Deterministic stand-ins for the paper's four real massive datasets.

The paper evaluates on wikilink, arabic-2005, twitter-2010 and
webspam-uk2007 — graphs of 0.6–3.7 billion edges that are neither shippable
nor traversable from Python at full scale.  Per the substitution rule in
DESIGN.md §5, each dataset is replaced by a generator that reproduces the
structural property the paper leans on:

* **wikilink** — a skewed cross-document link graph (avg degree ≈ 23).
* **arabic-2005** — a web crawl with strong *host locality*: most edges stay
  inside a host.  The paper's Fig. 11 discussion hinges on this locality.
* **twitter-2010** — "hard to compress", with a giant SCC covering 80.4% of
  nodes.  The giant SCC is what defeats root-children division, so the
  stand-in plants one covering the same fraction.
* **webspam-uk2007** — the largest dataset (the one where SEMI-DFS fails
  even at 20% of the edges); many hosts, highest degree.

Node counts are scaled down ~1000x from the paper; average degrees are kept.
All generators stream edges and are deterministic given their seed.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

from .generators import power_law_graph_edges

Edge = Tuple[int, int]
EdgeSource = Callable[[], Iterator[Edge]]


@dataclass(frozen=True)
class DatasetSpec:
    """A named synthetic dataset: node count plus a replayable edge stream."""

    name: str
    node_count: int
    average_degree: float
    edge_source: EdgeSource

    def edges(self) -> Iterator[Edge]:
        """A fresh pass over the dataset's edge stream."""
        return self.edge_source()


def crawl_page_permutation(node_count: int, seed: int) -> list:
    """The page-id scrambling applied by the crawl stand-ins.

    Real crawl datasets number pages by *discovery order*, which
    interleaves hosts — node ids carry almost no structural locality.
    The stand-ins apply this fixed pseudo-random permutation so that the
    id-ordered initial spanning tree is as uninformative as it is on the
    real datasets (otherwise the baselines converge unrealistically
    fast).  ``permutation[structural_id] = public_id``.
    """
    permutation = list(range(node_count))
    random.Random(seed ^ 0x5EED).shuffle(permutation)
    return permutation


def _scramble(edges: Iterator[Edge], node_count: int, seed: int) -> Iterator[Edge]:
    """Scramble page ids AND the on-disk edge order.

    Real crawl edge files interleave hosts in discovery order, so the
    edges touching one region of the graph are spread across the whole
    file — the low *locality* the paper's §4.1 (drawback 3) blames for
    the baselines' iteration counts (measured directly by the locality
    ablation benchmark).  Without this, a generator that emits edges
    host-by-host hands the batch algorithms one region per batch and they
    converge unrealistically fast.
    """
    permutation = crawl_page_permutation(node_count, seed)
    materialized = [(permutation[u], permutation[v]) for u, v in edges]
    random.Random(seed ^ 0xF11E).shuffle(materialized)
    return iter(materialized)


def _host_web_edges(
    node_count: int,
    average_degree: float,
    host_size: int,
    intra_fraction: float,
    seed: int,
) -> Iterator[Edge]:
    """A host-structured web graph with scrambled public ids."""
    edges = _host_web_edges_structural(
        node_count, average_degree, host_size, intra_fraction, seed
    )
    return _scramble(edges, node_count, seed)


def _host_web_edges_structural(
    node_count: int,
    average_degree: float,
    host_size: int,
    intra_fraction: float,
    seed: int,
) -> Iterator[Edge]:
    """A host-structured web graph in structural (host-major) ids.

    The model reproduces the crawl-graph structure the paper's Exp-1
    datasets have and its divisions rely on:

    * **hosts** of ``host_size`` consecutive pages, the first page being
      the home page, the rest organized into navigation *sections*
      (home -> section head -> pages, with breadcrumb links back up);
    * **hub vs archive sections** — only the first third of each host's
      sections cross-link freely (within the host's hub region); archive
      sections are reachable from the home without linking back out,
      giving every host separable tendrils;
    * **inter-host links** from hub pages to other hosts' home pages,
      forward in crawl order except for a short backward *window* (sister
      sites), so the host-level structure is a near-DAG;
    * **seed-only hosts** — 2 in 5 hosts receive no inter-host in-links
      at all (they were crawled from seeds, not discovered), so a DFS
      restarts at many homes and the top sibling group holds many
      independent subtrees.
    """
    rng = random.Random(seed)
    host_size = max(12, host_size)
    host_count = max(1, node_count // host_size)
    fanout = 4  # navigation-tree branching inside a section

    def host_range(host: int) -> tuple:
        start = host * host_size
        end = node_count if host == host_count - 1 else start + host_size
        return start, end

    def is_linkable(host: int) -> bool:
        """Hosts that other hosts may link to (3 in 5)."""
        return host % 5 < 3

    def hub_limit(start: int, end: int) -> int:
        """Pages below this bound form the host's hub region."""
        return start + max(4, (end - start) // 3)

    target_edges = int(average_degree * node_count)
    produced = 0

    # Deterministic navigation skeleton: every page is discoverable from
    # its home page, and links back up the hierarchy.
    section_pages = fanout * 5  # pages per section
    for host in range(host_count):
        start, end = host_range(host)
        for page in range(start + 1, end):
            offset = page - start - 1
            section, index = divmod(offset, section_pages)
            if index == 0:
                parent = start  # section head sits on the home page's menu
            else:
                section_start = start + 1 + section * section_pages
                parent = section_start + (index - 1) // fanout
            yield (parent, page)   # navigation: parent lists the page
            yield (page, parent)   # breadcrumb back up
            produced += 2

    # Remaining budget: each page emits a DISTINCT set of extra links
    # (pages list each link once; duplicated links would hand every batch
    # a copy of the same structure and trivialize the baselines).
    remaining = max(0, target_edges - produced)
    linkable = [h for h in range(host_count) if is_linkable(h)] or [0]
    hub_pages_total = 0
    for host in range(host_count):
        start, end = host_range(host)
        hub_pages_total += hub_limit(start, end) - start
    # +50% overshoot compensates the per-page distinct-target dedup
    per_hub_page = max(2, remaining * 3 // (2 * max(1, hub_pages_total)))
    popular_hubs: list = []  # endpoint list: sampling is popularity-weighted
    for host in range(host_count):
        start, end = host_range(host)
        hub_end = hub_limit(start, end)
        for u in range(start, hub_end):
            targets = set()
            # pagination: "next page" links chain the hub region into one
            # long ring per host — long cycles the baselines must untangle
            targets.add(start + (u - start + 1) % (hub_end - start))
            intra_share = 0.80 * intra_fraction  # the rest: content + inter
            for _ in range(per_hub_page - 1):
                roll = rng.random()
                if roll < intra_share:
                    # hub pages link anywhere in their own host; in-links
                    # into archive regions are harmless for separability
                    # (archive pages still never link out)
                    v = rng.randrange(start, end)
                elif roll < intra_share + 0.15 and popular_hubs:
                    # content link: popularity-weighted over hub pages seen
                    # so far — the preferential-attachment tangle that
                    # drives the baselines' iteration counts, kept away
                    # from the archive regions so they stay separable
                    v = popular_hubs[rng.randrange(len(popular_hubs))]
                elif is_linkable(host):
                    # the web core: linkable hosts cite each other freely,
                    # so their hubs form one giant cross-host SCC
                    v = linkable[rng.randrange(len(linkable))] * host_size
                else:
                    # seed-only hosts point forward into the core
                    cut = bisect.bisect_right(linkable, host)
                    if cut >= len(linkable):
                        cut = 0
                    v = linkable[rng.randrange(cut, len(linkable))] * host_size
                if v != u:
                    targets.add(v)
            for v in targets:
                yield (u, v)
                popular_hubs.append(v)


def _giant_scc_edges(
    node_count: int,
    average_degree: float,
    scc_fraction: float,
    seed: int,
) -> Iterator[Edge]:
    """A follower-style graph with a planted giant SCC (scrambled ids)."""
    edges = _giant_scc_edges_structural(
        node_count, average_degree, scc_fraction, seed
    )
    return _scramble(edges, node_count, seed)


def _giant_scc_edges_structural(
    node_count: int,
    average_degree: float,
    scc_fraction: float,
    seed: int,
) -> Iterator[Edge]:
    """A follower-style graph with a planted giant SCC.

    The first ``scc_fraction * n`` nodes form the core: a directed cycle
    through all of them guarantees they are one SCC, and the remaining core
    edges are skewed random core-to-core links.  Peripheral nodes take a
    fixed one-directional role — even ids only *follow* the core, odd ids
    are only *followed by* it — so the periphery can never join the SCC and
    the planted SCC fraction is exact.
    """
    rng = random.Random(seed)
    core_size = max(2, int(scc_fraction * node_count))
    target_edges = int(average_degree * node_count)

    # The planted cycle that certifies the giant SCC.
    for u in range(core_size):
        yield (u, (u + 1) % core_size)
    produced = core_size

    # Skewed random sampler: preferring small ids approximates the
    # celebrity skew of a follower graph.
    def skewed_core_node() -> int:
        return min(int(rng.random() ** 2 * core_size), core_size - 1)

    def periphery_node(role: int) -> int:
        node = rng.randrange(core_size, node_count)
        if node % 2 != role:
            node = node + 1 if node + 1 < node_count else node - 1
        return node

    while produced < target_edges:
        roll = rng.random()
        if roll < 0.70 or core_size == node_count:  # core-to-core
            u = rng.randrange(core_size)
            v = skewed_core_node()
        elif roll < 0.92:  # an even-id peripheral follows the core
            u = periphery_node(0)
            v = skewed_core_node()
        else:  # the core reaches out to an odd-id peripheral
            u = rng.randrange(core_size)
            v = periphery_node(1)
        if u != v and (u < core_size or u % 2 == 0) and (v < core_size or v % 2 == 1):
            yield (u, v)
            produced += 1


def wikilink_like(scale: float = 1.0, seed: int = 7) -> DatasetSpec:
    """Stand-in for wikilink: skewed cross-document link graph, degree 23."""
    node_count = max(64, int(8_000 * scale))
    degree = 23.0
    return DatasetSpec(
        name="wikilink",
        node_count=node_count,
        average_degree=degree,
        edge_source=lambda: power_law_graph_edges(
            node_count, degree, attractiveness=degree, seed=seed, reverse_fraction=0.2
        ),
    )


def arabic2005_like(scale: float = 1.0, seed: int = 11) -> DatasetSpec:
    """Stand-in for arabic-2005: host-local web crawl, degree 28."""
    node_count = max(64, int(8_000 * scale))
    return DatasetSpec(
        name="arabic-2005",
        node_count=node_count,
        average_degree=28.0,
        edge_source=lambda: _host_web_edges(
            node_count, 28.0, host_size=100, intra_fraction=0.85, seed=seed
        ),
    )


def twitter2010_like(scale: float = 1.0, seed: int = 13) -> DatasetSpec:
    """Stand-in for twitter-2010: giant SCC over ~80% of nodes, degree 35."""
    node_count = max(64, int(12_000 * scale))
    return DatasetSpec(
        name="twitter-2010",
        node_count=node_count,
        average_degree=35.0,
        edge_source=lambda: _giant_scc_edges(
            node_count, 35.0, scc_fraction=0.804, seed=seed
        ),
    )


def webspam_uk2007_like(scale: float = 1.0, seed: int = 17) -> DatasetSpec:
    """Stand-in for webspam-uk2007: the largest host-structured web graph."""
    node_count = max(64, int(20_000 * scale))
    return DatasetSpec(
        name="webspam-uk2007",
        node_count=node_count,
        average_degree=35.0,
        edge_source=lambda: _host_web_edges(
            node_count, 35.0, host_size=175, intra_fraction=0.80, seed=seed
        ),
    )


def all_datasets(scale: float = 1.0) -> Dict[str, DatasetSpec]:
    """The four Exp-1 datasets, keyed by name, ordered as in the paper."""
    specs = [
        webspam_uk2007_like(scale),
        twitter2010_like(scale),
        wikilink_like(scale),
        arabic2005_like(scale),
    ]
    return {spec.name: spec for spec in specs}
