"""Voronoi cell construction (Section III-B).

The identified critical skeleton nodes ("sites") flood concurrently; every
node records its nearest site(s), hop distance and reverse path.  Nodes
whose best two hop distances differ by at most ``α`` are *segment nodes*;
nodes near-equidistant to three or more sites are *Voronoi nodes* — the
discrete analogue of Voronoi vertices, and the witnesses used later to spot
fake loops.  Theorem 4 guarantees each cell is connected.

This module is the centralized equivalent: exact per-site BFS distances and
parent pointers.  The message-passing version lives in
:mod:`repro.core.distributed`; tests assert the two agree on cells and
segment sets.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..network.graph import SensorNetwork, UNREACHED
from .params import SkeletonParams

__all__ = ["VoronoiDecomposition", "build_voronoi", "records_from_candidates",
           "records_to_structures", "border_edges_from_cells"]

SitePair = Tuple[int, int]
"""An unordered adjacent-cell pair, stored as (low site id, high site id)."""


@dataclass
class VoronoiDecomposition:
    """The network partitioned into cells around critical skeleton nodes.

    Attributes:
        sites: the critical skeleton nodes, in id order.
        dist: hop distances, shape ``(len(sites), n)`` (UNREACHED = -1).
        parent: BFS predecessor toward each site, same shape.
        records: per node, the list of ``(site, distance)`` entries whose
            distance is within ``alpha`` of the node's best distance —
            exactly what the node "keeps record of" in Section III-B.
        cell_of: per node, the nearest site (lowest site id on exact ties).
        segment_nodes: nodes recording ≥ 2 sites.
        voronoi_nodes: nodes recording ≥ 3 sites.
        pair_segments: adjacent site pair -> the segment nodes almost
            equidistant to both sites of the pair.
        pair_border_edges: site pair -> network edges crossing the border
            between the two cells.  At low density a short cell border may
            hold no node close enough to both sites to become a segment
            node, yet the cells still touch — these edges witness that
            adjacency and serve as fallback connectors.
    """

    network: SensorNetwork
    sites: List[int]
    dist: np.ndarray
    parent: np.ndarray
    records: List[List[Tuple[int, int]]]
    cell_of: List[int]
    segment_nodes: Set[int]
    voronoi_nodes: Set[int]
    pair_segments: Dict[SitePair, List[int]]
    pair_border_edges: Dict[SitePair, List[Tuple[int, int]]]

    @property
    def num_cells(self) -> int:
        return len(self.sites)

    def site_index(self, site: int) -> int:
        return self.sites.index(site)

    def cell_members(self, site: int) -> List[int]:
        """All nodes whose nearest site is *site*."""
        return [v for v in self.network.nodes() if self.cell_of[v] == site]

    def adjacent_pairs(self) -> List[SitePair]:
        """All adjacent site pairs (segment- or border-witnessed), sorted."""
        return sorted(set(self.pair_segments) | set(self.pair_border_edges))

    def path_to_site(self, node: int, site: int) -> List[int]:
        """The recorded reverse path from *node* to *site* (inclusive)."""
        row = self.parent[self.site_index(site)]
        if self.dist[self.site_index(site), node] == UNREACHED:
            raise ValueError(f"node {node} was not reached from site {site}")
        return self.network.path_to_source(row, node)

    def sites_recorded_by(self, node: int) -> List[int]:
        return [site for site, _ in self.records[node]]

    def cells_are_connected(self) -> bool:
        """Theorem 4 check: every cell induces a connected subgraph."""
        for site in self.sites:
            members = self.cell_members(site)
            if not members:
                continue
            member_set = set(members)
            seen = {members[0]}
            stack = [members[0]]
            while stack:
                u = stack.pop()
                for v in self.network.neighbors(u):
                    if v in member_set and v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) != len(members):
                return False
        return True


def records_to_structures(
    records: Sequence[Sequence[Tuple[int, int]]],
) -> Tuple[List[int], Set[int], Set[int], Dict[SitePair, List[int]]]:
    """Derive the cell structures from per-node record lists.

    Returns ``(cell_of, segment_nodes, voronoi_nodes, pair_segments)``.
    Records must already be sorted by ``(distance, site)`` per node — the
    invariant :func:`build_voronoi` establishes.  Factored out so the
    sharded merge (:mod:`repro.shard`) derives its structures through the
    exact same code path as the monolithic build: iterating nodes in
    ascending id order keeps every ``pair_segments`` list bit-identical.
    """
    cell_of: List[int] = []
    segment_nodes: Set[int] = set()
    voronoi_nodes: Set[int] = set()
    pair_segments: Dict[SitePair, List[int]] = {}
    for node, near in enumerate(records):
        if not near:
            cell_of.append(-1)
            continue
        cell_of.append(near[0][0])
        if len(near) >= 2:
            segment_nodes.add(node)
            near_sites = [site for site, _ in near]
            for i in range(len(near_sites)):
                for j in range(i + 1, len(near_sites)):
                    pair = (min(near_sites[i], near_sites[j]),
                            max(near_sites[i], near_sites[j]))
                    pair_segments.setdefault(pair, []).append(node)
        if len(near) >= 3:
            voronoi_nodes.add(node)
    return cell_of, segment_nodes, voronoi_nodes, pair_segments


def border_edges_from_cells(
    network: SensorNetwork, cell_of: Sequence[int],
) -> Dict[SitePair, List[Tuple[int, int]]]:
    """Edges crossing a cell border, grouped per adjacent site pair.

    Cells touch wherever an edge joins two cells, even when no node lies
    close enough to both sites to be a segment node.  Each edge is
    oriented with the lower-site cell's endpoint first; edges accumulate
    in ascending ``(u, v)`` scan order.  Shared by :func:`build_voronoi`
    and the sharded merge.
    """
    pair_border_edges: Dict[SitePair, List[Tuple[int, int]]] = {}
    for u in range(network.num_nodes):
        cu = cell_of[u]
        if cu < 0:
            continue
        for v in network.neighbors(u):
            if v <= u:
                continue
            cv = cell_of[v]
            if cv < 0 or cv == cu:
                continue
            pair = (min(cu, cv), max(cu, cv))
            edge = (u, v) if cell_of[u] == pair[0] else (v, u)
            pair_border_edges.setdefault(pair, []).append(edge)
    return pair_border_edges


def records_from_candidates(num_nodes: int, node: np.ndarray,
                            site: np.ndarray, dist: np.ndarray,
                            ) -> List[List[Tuple[int, int]]]:
    """Per-node record lists from kept ``(node, site, dist)`` candidates.

    Each node's ``(site, dist)`` records come sorted by ``(dist, site)``,
    as plain ints; a node without candidates gets an empty record.
    """
    order = np.lexsort((site, dist, node))
    bounds = np.searchsorted(node[order], np.arange(num_nodes + 1)).tolist()
    pairs = list(zip(site[order].tolist(), dist[order].tolist()))
    return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def build_voronoi(network: SensorNetwork, sites: Sequence[int],
                  params: Optional[SkeletonParams] = None,
                  cache=None, tracer=None) -> VoronoiDecomposition:
    """Partition *network* into Voronoi cells around *sites*.

    Follows Section III-B with exact distances: each node's record set is
    every site within ``alpha`` hops of its best distance; the node's cell
    is its nearest site (lowest id on ties, a deterministic stand-in for
    "first wave to arrive").

    With *cache*, the decomposition is memoized under the graph's content
    hash, the site set and ``alpha`` (backend excluded — bit-identical by
    contract).  The cached artifact stores ``network=None`` so the graph is
    hashed once, never pickled per artifact; the caller's network is
    rebound on every hit.
    """
    params = params if params is not None else SkeletonParams()
    sites = sorted(set(sites))
    if not sites:
        raise ValueError("at least one site is required")
    if cache is not None:
        detached = cache.get_or_build(
            "voronoi",
            (network.content_hash(), tuple(sites), params.alpha),
            lambda: dataclasses.replace(
                build_voronoi(network, sites, params, tracer=tracer),
                network=None,
            ),
            tracer=tracer,
        )
        return dataclasses.replace(detached, network=network)
    if params.backend == "vectorized":
        # Bit-identical to the reference BFS (same dist AND parents), so
        # downstream reverse paths and the coarse skeleton do not change
        # with the backend.
        engine = network.traversal(params.traversal_batch_width)
        dist, parent = engine.multi_source_distances(sites, tracer=tracer)
    else:
        dist, parent = network.multi_source_distances(sites)

    reach = dist != UNREACHED
    best = dist.min(axis=0, initial=np.iinfo(dist.dtype).max, where=reach)
    site_row, node = np.nonzero(reach & (dist - best <= params.alpha))
    records = records_from_candidates(
        network.num_nodes, node, np.asarray(sites)[site_row],
        dist[site_row, node],
    )

    cell_of, segment_nodes, voronoi_nodes, pair_segments = \
        records_to_structures(records)
    pair_border_edges = border_edges_from_cells(network, cell_of)

    return VoronoiDecomposition(
        network=network,
        sites=list(sites),
        dist=dist,
        parent=parent,
        records=records,
        cell_of=cell_of,
        segment_nodes=segment_nodes,
        voronoi_nodes=voronoi_nodes,
        pair_segments=pair_segments,
        pair_border_edges=pair_border_edges,
    )
