"""Loop identification and fake-loop removal (Section III-D).

Cycles in the coarse skeleton are either *genuine* — they wrap a hole
(obstacle) in the field and must be kept so the skeleton stays homotopic to
the network — or *fake* (junction triangles of three or more mutually
adjacent Voronoi cells, plus realization braids).

Analysis happens at the **site level**: the site graph (vertices = critical
skeleton nodes, edges = adjacent cell pairs) is two orders of magnitude
smaller than the node-level skeleton, and the paper's fake loops are
precisely its tight cycles.  Because cells overlap several neighbours, a
hole-wrapping ring is often a *sum* of junction triangles in cycle space —
no single basis element wraps the hole — so one-shot basis classification
cannot work.  Instead the clean-up mirrors the paper's iterative
merge-and-delete:

    repeat:
        enumerate tight independent cycles, cheapest first
        classify the cheapest unresolved cycle
        if fake: drop its weakest cell-to-cell connection and re-enumerate
    until every remaining cycle is genuine

Removing one edge of a contractible cycle is homotopy-safe — the cycle rank
falls by exactly one and every genuine class persists (rerouted through the
remaining edges).  The iteration therefore terminates with cycle rank equal
to the number of genuine loops.

Per-cycle classification runs three connectivity-only tests, cheapest
first:

1. **minimum circumference** — the realized node-level cycle must span at
   least ``min_loop_hops`` hops (the analogue of the paper's end-node-loop
   threshold).
2. **Voronoi witness** (the paper's signal — a small end-node loop
   "indicat[es] that there is at least one Voronoi node"): fake iff some
   Voronoi node is near-equidistant to *all* the ring's sites.
3. **isoperimetric test** — a contractible cycle lives inside a disk-like
   patch, so its length is at most ``2π × c_max`` where ``c_max`` is the
   largest hop-clearance (distance to the detected boundary) on the ring;
   a hole-wrapping ring is longer, its length carrying the hole's
   perimeter.  The boundary by-product supplies the clearance field,
   mirroring how the paper's end nodes are "either a boundary node or a
   Voronoi node".
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from ..network.graph import SensorNetwork
from .coarse import CoarseSkeleton, SkeletonEdge
from .params import LoopStrategy, SkeletonParams
from .voronoi import SitePair, VoronoiDecomposition

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = [
    "Loop",
    "LoopAnalysis",
    "identify_loops",
    "hop_clearance",
    "isoperimetric_ratio",
    "enclosed_interior",
    "simplify_closed_walk",
    "site_cycle_rings",
    "SiteGraph",
]


@dataclass
class Loop:
    """One analysed cycle of the coarse skeleton (site-level ring).

    Attributes:
        sites: the critical skeleton nodes around the cycle, in ring order.
        ordered: the realized node-level cycle (simple, after shortcutting
            repeated nodes out of the concatenated pair paths).
        nodes: set view of ``ordered``.
        edges: the realized cycle's skeleton edges.
        is_fake: classification outcome.
        witnesses: Voronoi nodes that triggered the witness criterion.
        iso_ratio: measured isoperimetric ratio (0 when not evaluated).
        removed_pair: for fake loops, the site pair whose connection was
            dropped to open the cycle.
    """

    sites: List[int]
    ordered: List[int]
    nodes: Set[int]
    edges: Set[SkeletonEdge]
    is_fake: bool
    witnesses: List[int]
    iso_ratio: float = 0.0
    removed_pair: Optional[SitePair] = None

    @property
    def length(self) -> int:
        return len(self.ordered)


@dataclass
class LoopAnalysis:
    """Outcome of the iterative loop clean-up.

    Attributes:
        loops: every analysed cycle — the surviving genuine rings plus one
            record per removed fake (Fig. 1e's colour-coding, in data form).
        kept_pairs: the adjacent site pairs whose connections remain; the
            refined skeleton realizes exactly these.
        removed_pairs: connections dropped to open fake loops.
    """

    loops: List[Loop]
    kept_pairs: Set[SitePair]
    removed_pairs: Set[SitePair]

    @property
    def genuine(self) -> List[Loop]:
        return [loop for loop in self.loops if not loop.is_fake]

    @property
    def fake(self) -> List[Loop]:
        return [loop for loop in self.loops if loop.is_fake]

    def __iter__(self):
        return iter(self.loops)


def simplify_closed_walk(walk: Sequence[int]) -> List[int]:
    """Reduce a closed walk to a simple cycle by cutting out revisits.

    Whenever a node reappears, the sub-walk since its first appearance is a
    detour (a braid lens) and is dropped.  The result visits each node once.
    """
    out: List[int] = []
    position: Dict[int, int] = {}
    for node in walk:
        if node in position:
            cut = position[node]
            for dropped in out[cut + 1:]:
                position.pop(dropped, None)
            del out[cut + 1:]
        else:
            position[node] = len(out)
            out.append(node)
    return out


def hop_clearance(network: SensorNetwork,
                  boundary_nodes: Set[int],
                  engine=None, tracer=None) -> List[int]:
    """Hop distance from every node to the nearest detected boundary node.

    The connectivity analogue of the Euclidean distance transform; one
    multi-source BFS.  Nodes unreachable from any boundary node (possible
    only in degenerate networks) get distance ``network.num_nodes``.

    With an *engine* (:class:`repro.network.TraversalEngine`) the merged
    wave runs on the CSR arrays; BFS distances are unique, so the result
    is bit-identical to the deque sweep.
    """
    unreached = network.num_nodes
    if engine is not None:
        import numpy as np

        dist_arr = engine.min_hop_distance(sorted(boundary_nodes), tracer=tracer)
        return np.where(dist_arr < 0, unreached, dist_arr).tolist()
    dist = [unreached] * network.num_nodes
    queue = deque()
    for b in boundary_nodes:
        dist[b] = 0
        queue.append(b)
    while queue:
        u = queue.popleft()
        for v in network.neighbors(u):
            if dist[v] > dist[u] + 1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _components_without(network: SensorNetwork,
                        removed: Set[int]) -> List[Set[int]]:
    """Connected components of the network minus *removed*, largest first."""
    seen: Set[int] = set()
    components: List[Set[int]] = []
    for start in network.nodes():
        if start in removed or start in seen:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in network.neighbors(u):
                if v in removed or v in component:
                    continue
                component.add(v)
                queue.append(v)
        seen |= component
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def isoperimetric_ratio(network: SensorNetwork, ordered: Sequence[int],
                        clearance: Sequence[int]) -> float:
    """``len(C) / (2π · c̃)`` with c̃ the 75th-percentile ring clearance.

    Skeleton cycles are medial, so their nodes sit near-equidistant from
    the surrounding boundary; the (robustified) on-ring clearance
    approximates the inradius of the patch a contractible cycle would have
    to fit in.  The 75th percentile tolerates the handful of nodes whose
    clearance the patchy low-degree boundary detector inflates, which the
    plain maximum does not.  Ratios near or below 1 mean contractible
    (fake); hole-wrapping rings score higher because their length carries
    the hole's perimeter on top of the corridor width.
    """
    if len(ordered) < 3:
        return 0.0
    ring_clearances = sorted(clearance[v] for v in ordered)
    c_tilde = ring_clearances[(3 * len(ring_clearances)) // 4]
    return len(ordered) / (2.0 * math.pi * max(c_tilde, 1))


def opposite_width(network: SensorNetwork, ordered: Sequence[int],
                   samples: int = 6, engine=None, tracer=None) -> int:
    """Smallest hop distance between opposite points of the cycle.

    A braid — two parallel strands closing a long thin cycle — has opposite
    points only a couple of hops apart, whereas a hole-wrapping ring keeps
    them separated by the hole's diameter plus two corridor widths.  This
    catches the rare long braid whose isoperimetric ratio looks genuine.

    The reference path bounds each BFS by the best width so far; that only
    skips distances which could not lower the minimum (both endpoints sit
    on the cycle, so every pair distance is at most the cycle length), so
    the *engine* path — exact distances for all sample pairs in one batched
    sweep, then the minimum — returns the same value.
    """
    length = len(ordered)
    if length < 4:
        return 0
    half = length // 2
    count = min(samples, length)
    best = length
    if engine is not None:
        starts = [(i * length) // count for i in range(count)]
        sources = [ordered[s] for s in starts]
        targets = [ordered[(s + half) % length] for s in starts]
        dist = engine.hop_distances(sources, tracer=tracer)
        for i, b in enumerate(targets):
            d = int(dist[i, b])
            if d >= 0:
                best = min(best, d)
        return best
    for i in range(count):
        start = (i * length) // count
        a = ordered[start]
        b = ordered[(start + half) % length]
        d = network.bfs_distances(a, max_hops=best).get(b)
        if d is not None:
            best = min(best, d)
    return best


def enclosed_interior(
    network: SensorNetwork,
    ordered: Sequence[int],
    skeleton_nodes: Set[int],
    min_size_factor: float = 0.5,
) -> int:
    """Size of a skeleton-free component enclosed by the cycle (ablation).

    The size-based alternative to the isoperimetric test: accepts a
    non-exterior component containing no other skeleton node and at least
    ``min_size_factor × |cycle|`` nodes.  Kept for the E-ABL bench.
    """
    cycle_set = set(ordered)
    length = len(cycle_set)
    if length < 3:
        return 0
    thick: Set[int] = set(cycle_set)
    for u in cycle_set:
        thick.update(network.neighbors(u))
    other_skeleton = skeleton_nodes - thick
    components = _components_without(network, thick)
    best = 0
    for component in components[1:]:
        if component & other_skeleton:
            continue
        if len(component) >= min_size_factor * length:
            best = max(best, len(component))
    return best


# ---------------------------------------------------------------------------
# Site-level cycle family (ordered, independent, tight)
# ---------------------------------------------------------------------------

def _bidirectional_dijkstra(adj: Dict[int, Dict[int, float]], source: int,
                            target: int) -> Tuple[Optional[List[int]], List[int]]:
    """``networkx.bidirectional_dijkstra`` over plain weighted adjacency.

    A port that keeps networkx's ``(dist, counter, node)`` heap keys and
    reads neighbours in dict order, so equal-weight ties resolve to the
    same path.  Returns the path (``None`` when there is none) and the
    nodes whose adjacency the search read, in expansion order.
    """
    if source == target:
        return [source], []
    dists: Tuple[dict, dict] = ({}, {})
    preds: Tuple[dict, dict] = ({source: None}, {target: None})
    seen: Tuple[dict, dict] = ({source: 0}, {target: 0})
    fringe: Tuple[list, list] = ([(0, 0, source)], [(0, 1, target)])
    counter = count(2)
    finaldist = None
    meetnode = None
    expanded: List[int] = []
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        done = dists[direction]
        if v in done:
            continue
        done[v] = dist
        if v in dists[1 - direction]:
            path: List[int] = []
            node = meetnode
            while node is not None:
                path.append(node)
                node = preds[0][node]
            path.reverse()
            node = preds[1][meetnode]
            while node is not None:
                path.append(node)
                node = preds[1][node]
            return path, expanded
        expanded.append(v)
        heap, pred = fringe[direction], preds[direction]
        seen_here, seen_there = seen[direction], seen[1 - direction]
        for w, cost in adj[v].items():
            length = dist + cost
            if w in done:
                continue
            if w not in seen_here or length < seen_here[w]:
                seen_here[w] = length
                heappush(heap, (length, next(counter), w))
                pred[w] = v
                if w in seen_there:
                    total = length + seen_there[w]
                    if finaldist is None or finaldist > total:
                        finaldist, meetnode = total, w
    return None, expanded


class SiteGraph:
    """The weighted site graph of stage 4, with incremental ring search.

    ``adj`` maps each node to ``{neighbour: weight}`` in the same dict
    order a ``networkx.Graph`` would hold.  :meth:`rings` is the
    Horton-style family :func:`site_cycle_rings` documents; it removes and
    re-adds each edge around its search like the networkx loop did, so
    every node's neighbour order (and with it every tie-break) follows the
    same history.

    Between passes only :meth:`remove_edge` changes the graph, and a
    search result from the previous pass is reused unless a removed edge
    touches a node the search expanded (see DESIGN.md, "Stage-4 ring
    reuse").  Results of the first pass, whose starting neighbour order is
    arbitrary, are instead reused only when every expanded node's
    neighbours, in order, equal a snapshot taken at search time.
    """

    def __init__(self, adj: Dict[int, Dict[int, float]]):
        self.adj = adj
        # edge -> (ring or None, edge mask, total weight, expanded nodes,
        # first-pass adjacency snapshot or None)
        self._searches: Dict[Tuple[int, int], tuple] = {}
        self._touched: Set[int] = set()
        self._canonical = False
        self._bit: Optional[Dict[FrozenSet[int], int]] = None

    @classmethod
    def from_pair_paths(cls, sites: Iterable[int],
                        pair_paths: Dict[SitePair, List[int]]) -> "SiteGraph":
        """Sites joined by their pair paths, weighted by path hop length."""
        adj: Dict[int, Dict[int, float]] = {site: {} for site in sites}
        for (a, b), path in pair_paths.items():
            weight = max(len(path) - 1, 1)
            adj.setdefault(a, {})[b] = weight
            adj.setdefault(b, {})[a] = weight
        return cls(adj)

    def edges(self) -> List[Tuple[int, int]]:
        """Every edge once, in ``networkx.Graph.edges()`` order."""
        out: List[Tuple[int, int]] = []
        done: Set[int] = set()
        for u, nbrs in self.adj.items():
            out.extend((u, v) for v in nbrs if v not in done)
            done.add(u)
        return out

    def number_of_edges(self) -> int:
        return len(self.edges())

    def remove_edge(self, u: int, v: int) -> None:
        del self.adj[u][v]
        self.adj[v].pop(u, None)
        self._touched.update((u, v))

    def _components(self) -> int:
        found: Set[int] = set()
        components = 0
        for start in self.adj:
            if start in found:
                continue
            components += 1
            found.add(start)
            stack = [start]
            while stack:
                for w in self.adj[stack.pop()]:
                    if w not in found:
                        found.add(w)
                        stack.append(w)
        return components

    def _search(self, u: int, v: int, weight: float) -> tuple:
        """The ring closed by edge (u, v), searched while (u, v) is out."""
        adj = self.adj
        entry = self._searches.get((u, v))
        if entry is not None:
            expanded, snapshot = entry[3], entry[4]
            if snapshot is None:
                if expanded.isdisjoint(self._touched):
                    return entry
            elif all(tuple(adj[x].items()) == items
                     for x, items in snapshot.items()):
                entry = entry[:4] + (None,)
                self._searches[(u, v)] = entry
                return entry
        path, order = _bidirectional_dijkstra(adj, u, v)
        mask = total = 0
        if path is not None and len(path) >= 3:
            for a, b in zip(path, path[1:]):
                mask ^= self._bit[frozenset((a, b))]
                total += adj[a][b]
            mask ^= self._bit[frozenset((v, u))]
            total += weight  # the closing edge, out of adj during the search
        else:
            path = None
        snapshot = (
            None if self._canonical
            else {x: tuple(adj[x].items()) for x in order}
        )
        entry = (path, mask, total, frozenset(order), snapshot)
        self._searches[(u, v)] = entry
        return entry

    def rings(self) -> List[List[int]]:
        """An independent family of ordered tight cycles, cheapest first."""
        adj = self.adj
        edges = self.edges()
        if not edges:
            return []
        if self._bit is None:
            # Removals keep the relative order of the remaining edges, and
            # the GF(2) filter below depends on bit order only, so bits
            # fixed now give the rings a per-pass edge index would.
            self._bit = {frozenset(e): 1 << i for i, e in enumerate(edges)}
        rank_target = len(edges) - len(adj) + self._components()
        if rank_target <= 0:
            return []

        candidates: List[Tuple[float, List[int], int]] = []
        seen_signatures: Set[int] = set()
        for u, v in edges:
            weight = adj[u].pop(v)
            adj[v].pop(u, None)
            path, mask, total, _, _ = self._search(u, v, weight)
            adj[u][v] = weight  # re-added at the end, as networkx would
            adj[v][u] = weight
            if path is None or mask in seen_signatures:
                continue
            seen_signatures.add(mask)
            candidates.append((total, path, mask))
        # Every edge has been re-added once, leaving each node's neighbours
        # in the canonical order later passes keep.
        self._canonical = True
        self._touched.clear()
        candidates.sort(key=lambda item: (item[0], item[1]))

        basis: List[Tuple[int, int]] = []
        rings: List[List[int]] = []
        for _, ring, mask in candidates:
            reduced = mask
            for top, bm in basis:
                # min(reduced, reduced ^ bm): xor exactly when it clears
                # bm's highest bit from reduced.
                if reduced & top:
                    reduced ^= bm
            if reduced == 0:
                continue
            basis.append((1 << (mask.bit_length() - 1), mask))
            rings.append(list(ring))
            if len(rings) >= rank_target:
                break
        return rings


def site_cycle_rings(graph: "nx.Graph") -> List[List[int]]:
    """An independent family of ordered tight cycles, cheapest first.

    Horton-style construction: for every edge (u, v), the shortest u–v path
    avoiding that edge closes a candidate ring; candidates are sorted by
    total weight and greedily reduced to a GF(2)-independent set over edge
    incidence vectors.  Unlike ``networkx.minimum_cycle_basis`` this yields
    *ordered* rings, so each element can be realized and classified.
    Edges without a ``weight`` attribute weigh 1; *graph* is not modified.
    """
    return SiteGraph({
        u: {v: data.get("weight", 1) for v, data in nbrs.items()}
        for u, nbrs in graph.adj.items()
    }).rings()


def _realize_site_ring(pair_paths: Dict[SitePair, List[int]],
                       site_ring: Sequence[int]) -> Optional[List[int]]:
    """Concatenate pair paths around a site ring into a simple node cycle."""
    walk: List[int] = []
    m = len(site_ring)
    for i in range(m):
        a, b = site_ring[i], site_ring[(i + 1) % m]
        path = pair_paths.get((min(a, b), max(a, b)))
        if path is None:
            return None
        if path[0] != a:
            path = list(reversed(path))
        walk.extend(path[:-1])  # drop the shared endpoint
    simple = simplify_closed_walk(walk)
    return simple if len(simple) >= 3 else None


def _edges_of_cycle(ordered: Sequence[int]) -> Set[SkeletonEdge]:
    return {
        frozenset((ordered[i], ordered[(i + 1) % len(ordered)]))
        for i in range(len(ordered))
    }


class _CycleClassifier:
    """Memoized per-ring classification (rings recur across iterations)."""

    def __init__(self, network: SensorNetwork, voronoi: VoronoiDecomposition,
                 skeleton_nodes: Set[int], params: SkeletonParams,
                 boundary_nodes: Set[int], tracer=None):
        self.network = network
        self.params = params
        self.skeleton_nodes = skeleton_nodes
        self.tracer = tracer
        self.engine = (
            network.traversal(params.traversal_batch_width)
            if params.backend == "vectorized" and network.num_nodes
            else None
        )
        self.clearance = hop_clearance(network, boundary_nodes,
                                       engine=self.engine, tracer=tracer)
        self.witness_records: List[Tuple[int, FrozenSet[int]]] = [
            (w, frozenset(voronoi.sites_recorded_by(w)))
            for w in sorted(voronoi.voronoi_nodes)
            if len(voronoi.sites_recorded_by(w)) >= 3
        ]
        self._cache: Dict[FrozenSet[SitePair], Tuple[bool, List[int], float]] = {}

    def classify(self, site_ring: Sequence[int],
                 ordered: Sequence[int]) -> Tuple[bool, List[int], float]:
        """Returns (is_fake, witnesses, iso_ratio) for a realized ring."""
        key = frozenset(
            (min(site_ring[i], site_ring[(i + 1) % len(site_ring)]),
             max(site_ring[i], site_ring[(i + 1) % len(site_ring)]))
            for i in range(len(site_ring))
        )
        if key in self._cache:
            return self._cache[key]
        params = self.params
        ring_set = frozenset(site_ring)
        witnesses = [w for w, records in self.witness_records if ring_set <= records]
        short_fake = len(ordered) < params.min_loop_hops

        ratio = 0.0
        if params.loop_strategy is LoopStrategy.VORONOI_WITNESS:
            is_fake = short_fake or bool(witnesses)
        elif params.loop_strategy is LoopStrategy.INTERIOR:
            interior = 0
            if not (short_fake or witnesses):
                interior = enclosed_interior(
                    self.network, ordered, self.skeleton_nodes,
                    min_size_factor=params.interior_factor,
                )
            is_fake = short_fake or bool(witnesses) or interior == 0
        else:  # BOUNDARY (default)
            is_fake = short_fake or bool(witnesses)
            if not is_fake:
                ratio = isoperimetric_ratio(self.network, ordered, self.clearance)
                is_fake = ratio < params.isoperimetric_threshold
            if not is_fake:
                # Guard against long thin braids: opposite points of a
                # genuine ring are a hole-diameter apart.
                median_clr = sorted(self.clearance[v] for v in ordered)[len(ordered) // 2]
                width = opposite_width(self.network, ordered,
                                       engine=self.engine, tracer=self.tracer)
                is_fake = width < 2 * median_clr + 1
        result = (is_fake, witnesses, ratio)
        self._cache[key] = result
        return result


def _weakest_pair_of(pairs: Sequence[SitePair], skeleton: CoarseSkeleton,
                     index: Optional[Sequence[float]]) -> SitePair:
    """The connection to drop among *pairs*: the lowest-index connector
    (paper: higher-index segment nodes are more central), falling back to
    the longest realized path."""
    if index is not None:
        def badness(pair: SitePair):
            connector = skeleton.connectors.get(pair)
            value = index[connector] if connector is not None else math.inf
            return (value, -len(skeleton.pair_paths.get(pair, ())), pair)
        return min(pairs, key=badness)
    return max(pairs, key=lambda p: (len(skeleton.pair_paths.get(p, ())), p))


def _weakest_pair(site_ring: Sequence[int], skeleton: CoarseSkeleton,
                  index: Optional[Sequence[float]]) -> SitePair:
    """The weakest connection around a whole site ring."""
    pairs = [
        (min(site_ring[i], site_ring[(i + 1) % len(site_ring)]),
         max(site_ring[i], site_ring[(i + 1) % len(site_ring)]))
        for i in range(len(site_ring))
    ]
    return _weakest_pair_of(pairs, skeleton, index)


def identify_loops(
    skeleton: CoarseSkeleton,
    voronoi: VoronoiDecomposition,
    params: Optional[SkeletonParams] = None,
    boundary_nodes: Optional[Set[int]] = None,
    index: Optional[Sequence[float]] = None,
    tracer=None,
) -> LoopAnalysis:
    """Iteratively open fake loops until only genuine ones remain (Fig. 1e–g).

    *boundary_nodes* is the connectivity-only boundary by-product; when
    omitted it is recomputed from k-hop sizes.  *index* (the Definition 4
    node index) picks which connection of a fake loop to drop; without it
    the longest path of the ring is dropped.
    """
    params = params if params is not None else SkeletonParams()
    network = skeleton.network
    if boundary_nodes is None:
        from .byproducts import detect_boundary_nodes
        from .neighborhood import compute_khop_sizes
        sizes = compute_khop_sizes(
            network, params.k, include_self=params.include_self,
            backend=params.backend, batch_width=params.traversal_batch_width,
        )
        boundary_nodes = detect_boundary_nodes(
            network, sizes, params.boundary_threshold_factor
        )

    classifier = _CycleClassifier(
        network, voronoi, set(skeleton.nodes), params, boundary_nodes,
        tracer=tracer,
    )

    graph = SiteGraph.from_pair_paths(skeleton.sites, skeleton.pair_paths)

    removed_pairs: Set[SitePair] = set()
    fake_records: List[Loop] = []
    max_iterations = graph.number_of_edges() + 1
    realized: Dict[Tuple[int, ...], Optional[List[int]]] = {}

    for _ in range(max_iterations):
        rings = graph.rings()
        opened = False
        genuine_rings: List[Tuple[List[int], List[int], float]] = []
        for site_ring in rings:
            key = tuple(site_ring)
            if key not in realized:  # rings recur across iterations
                realized[key] = _realize_site_ring(skeleton.pair_paths, site_ring)
            ordered = realized[key]
            if ordered is None:
                continue
            is_fake, witnesses, ratio = classifier.classify(site_ring, ordered)
            if is_fake:
                pair = _weakest_pair(site_ring, skeleton, index)
                graph.remove_edge(*pair)
                removed_pairs.add(pair)
                fake_records.append(
                    Loop(
                        sites=list(site_ring),
                        ordered=ordered,
                        nodes=set(ordered),
                        edges=_edges_of_cycle(ordered),
                        is_fake=True,
                        witnesses=witnesses,
                        iso_ratio=ratio,
                        removed_pair=pair,
                    )
                )
                opened = True
                break
            genuine_rings.append((site_ring, ordered, ratio))
        if not opened:
            # Deduplicate ring variants: two surviving genuine rings that
            # share most of their nodes wrap the same hole (they differ by
            # a braid strand); open the longer one along a non-shared edge.
            for i in range(len(genuine_rings)):
                for j in range(i + 1, len(genuine_rings)):
                    ring_a, ordered_a, _ = genuine_rings[i]
                    ring_b, ordered_b, _ = genuine_rings[j]
                    shared = len(set(ordered_a) & set(ordered_b))
                    smaller = min(len(ordered_a), len(ordered_b))
                    if smaller and shared / smaller > 0.5:
                        longer_ring, longer_ordered, ratio = max(
                            genuine_rings[i], genuine_rings[j],
                            key=lambda item: len(item[1]),
                        )
                        shorter_ring = (
                            ring_a if longer_ring is ring_b else ring_b
                        )
                        shorter_pairs = {
                            (min(shorter_ring[t], shorter_ring[(t + 1) % len(shorter_ring)]),
                             max(shorter_ring[t], shorter_ring[(t + 1) % len(shorter_ring)]))
                            for t in range(len(shorter_ring))
                        }
                        own_pairs = [
                            (min(longer_ring[t], longer_ring[(t + 1) % len(longer_ring)]),
                             max(longer_ring[t], longer_ring[(t + 1) % len(longer_ring)]))
                            for t in range(len(longer_ring))
                        ]
                        droppable = [p for p in own_pairs if p not in shorter_pairs]
                        if droppable:
                            pair = _weakest_pair_of(droppable, skeleton, index)
                            graph.remove_edge(*pair)
                            removed_pairs.add(pair)
                            fake_records.append(
                                Loop(
                                    sites=list(longer_ring),
                                    ordered=longer_ordered,
                                    nodes=set(longer_ordered),
                                    edges=_edges_of_cycle(longer_ordered),
                                    is_fake=True,
                                    witnesses=[],
                                    iso_ratio=ratio,
                                    removed_pair=pair,
                                )
                            )
                            opened = True
                            break
                if opened:
                    break
        if not opened:
            loops = fake_records + [
                Loop(
                    sites=list(site_ring),
                    ordered=ordered,
                    nodes=set(ordered),
                    edges=_edges_of_cycle(ordered),
                    is_fake=False,
                    witnesses=[],
                    iso_ratio=ratio,
                )
                for site_ring, ordered, ratio in genuine_rings
            ]
            kept = {
                (min(a, b), max(a, b)) for a, b in graph.edges()
            }
            return LoopAnalysis(
                loops=loops, kept_pairs=kept, removed_pairs=removed_pairs
            )
    raise RuntimeError("fake-loop removal failed to converge")  # pragma: no cover
