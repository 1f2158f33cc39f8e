"""Fast kernels against the loops they replaced, kept here as oracles.

* ``Field.contains_points`` / batched ``Field.sample_uniform`` against the
  scalar membership test and one-candidate-at-a-time rejection sampling;
* the Voronoi record assembly against the per-node loop;
* ``SiteGraph`` (stage 4's incremental ring search) against the networkx
  Horton loop, both alone and through the whole pipeline.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.loops as loops_module
from repro.core import SkeletonExtractor
from repro.core.loops import SiteGraph, site_cycle_rings
from repro.core.voronoi import build_voronoi
from repro.geometry.polygon import Field, Ring
from repro.geometry.primitives import Point
from repro.geometry.shapes import SHAPES, make_field
from repro.network import UnitDiskRadio, build_network
from repro.network.graph import UNREACHED
from repro.network.scenarios import PAPER_SCENARIOS
from repro.shard.equivalence import diff_results


# ---------------------------------------------------------------------------
# Oracles: the replaced loops, verbatim in behaviour
# ---------------------------------------------------------------------------

def scalar_sample_uniform(field, n, rng):
    """Rejection sampling one candidate at a time."""
    box = field.bounding_box()
    points = []
    attempts = 0
    max_attempts = max(10_000, 1000 * n)
    while len(points) < n:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError("rejection sampling failed")
        p = Point(
            rng.uniform(box.min_x, box.max_x),
            rng.uniform(box.min_y, box.max_y),
        )
        if field.contains(p):
            points.append(p)
    return points


def loop_voronoi_records(dist, sites, alpha):
    """The per-node record assembly loop."""
    records = []
    for node in range(dist.shape[1]):
        column = dist[:, node]
        reachable = [
            (int(column[si]), sites[si])
            for si in range(len(sites))
            if column[si] != UNREACHED
        ]
        if not reachable:
            records.append([])
            continue
        best = min(d for d, _ in reachable)
        records.append(sorted(
            [(site, d) for d, site in reachable if d - best <= alpha],
            key=lambda item: (item[1], item[0]),
        ))
    return records


def nx_site_cycle_rings(graph):
    """The networkx Horton loop; it re-adds every edge, like the original."""
    edges = list(graph.edges())
    if not edges:
        return []
    edge_index = {frozenset(e): i for i, e in enumerate(edges)}
    rank_target = (
        graph.number_of_edges() - graph.number_of_nodes()
        + nx.number_connected_components(graph)
    )
    if rank_target <= 0:
        return []

    candidates = []
    seen_signatures = set()
    for u, v in edges:
        weight = graph[u][v].get("weight", 1)
        graph.remove_edge(u, v)
        try:
            path = nx.shortest_path(graph, u, v, weight="weight")
        except nx.NetworkXNoPath:
            path = None
        graph.add_edge(u, v, weight=weight)
        if path is None or len(path) < 3:
            continue
        ring = list(path)
        mask = 0
        for i in range(len(ring)):
            mask ^= 1 << edge_index[frozenset((ring[i], ring[(i + 1) % len(ring)]))]
        if mask in seen_signatures:
            continue
        seen_signatures.add(mask)
        total = sum(
            graph[ring[i]][ring[(i + 1) % len(ring)]].get("weight", 1)
            for i in range(len(ring))
        )
        candidates.append((total, ring))
    candidates.sort(key=lambda item: (item[0], item[1]))

    basis_masks = []
    rings = []
    for _, ring in candidates:
        mask = 0
        for i in range(len(ring)):
            mask ^= 1 << edge_index[frozenset((ring[i], ring[(i + 1) % len(ring)]))]
        reduced = mask
        for bm in basis_masks:
            reduced = min(reduced, reduced ^ bm)
        if reduced == 0:
            continue
        basis_masks.append(mask)
        rings.append(ring)
        if len(rings) >= rank_target:
            break
    return rings


class NxSiteGraph:
    """The networkx site graph ``identify_loops`` kept before SiteGraph."""

    def __init__(self, graph):
        self.graph = graph

    @classmethod
    def from_pair_paths(cls, sites, pair_paths):
        graph = nx.Graph()
        graph.add_nodes_from(sites)
        for pair, path in pair_paths.items():
            graph.add_edge(pair[0], pair[1], weight=max(len(path) - 1, 1))
        return cls(graph)

    def rings(self):
        return nx_site_cycle_rings(self.graph)

    def remove_edge(self, u, v):
        self.graph.remove_edge(u, v)

    def number_of_edges(self):
        return self.graph.number_of_edges()

    def edges(self):
        return list(self.graph.edges())


# ---------------------------------------------------------------------------
# Deployment and membership
# ---------------------------------------------------------------------------

def _probe_points(field):
    """Vertices, edge midpoints, and points 1e-10 either side of each edge."""
    probes = []
    for ring in field.rings():
        for a, b in ring.edges():
            mid = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
            length = a.distance_to(b) or 1.0
            nx_, ny_ = -(b.y - a.y) / length, (b.x - a.x) / length
            probes += [a, mid,
                       Point(mid.x + 1e-10 * nx_, mid.y + 1e-10 * ny_),
                       Point(mid.x - 1e-10 * nx_, mid.y - 1e-10 * ny_)]
    box = field.bounding_box()
    rng = random.Random(5)
    probes += [Point(rng.uniform(box.min_x, box.max_x),
                     rng.uniform(box.min_y, box.max_y)) for _ in range(500)]
    return probes


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_contains_points_equals_scalar_contains(shape):
    field = make_field(shape)
    probes = _probe_points(field)
    batch = field.contains_points([p.x for p in probes], [p.y for p in probes])
    assert batch.tolist() == [field.contains(p) for p in probes]


def test_contains_points_on_hole_boundary():
    field = Field(outer=Ring([Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]),
                  holes=[Ring([Point(4, 4), Point(6, 4), Point(6, 6), Point(4, 6)])])
    probes = [Point(4, 5), Point(5, 4), Point(6, 6), Point(5, 5), Point(4 - 1e-10, 5),
              Point(4 + 1e-10, 5), Point(0, 5), Point(10, 10), Point(11, 5)]
    batch = field.contains_points([p.x for p in probes], [p.y for p in probes])
    assert batch.tolist() == [field.contains(p) for p in probes]
    assert batch.tolist() == [True, True, True, False, True, True, True, True, False]


def test_contains_points_empty_batch():
    assert make_field("window").contains_points([], []).tolist() == []


@pytest.mark.parametrize("name", sorted(PAPER_SCENARIOS))
def test_sample_uniform_matches_scalar_loop(name):
    field = PAPER_SCENARIOS[name].field()
    fast_rng, slow_rng = random.Random(11), random.Random(11)
    fast = field.sample_uniform(300, rng=fast_rng)
    slow = scalar_sample_uniform(field, 300, slow_rng)
    assert fast == slow
    assert fast_rng.getstate() == slow_rng.getstate()


def test_zero_area_ring_still_fails():
    line = Field(outer=Ring([Point(0, 0), Point(5, 5), Point(10, 10)]))
    assert line.bounding_box().area > 0
    with pytest.raises(RuntimeError):
        line.sample_uniform(3, rng=random.Random(0))


# ---------------------------------------------------------------------------
# Voronoi record assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_voronoi_records_match_loop(annulus_network, backend):
    from repro.core import SkeletonParams

    params = SkeletonParams(backend=backend)
    sites = list(range(0, annulus_network.num_nodes, 37))
    vor = build_voronoi(annulus_network, sites, params)
    assert vor.records == loop_voronoi_records(vor.dist, vor.sites, params.alpha)


def test_voronoi_record_of_unreached_node_is_empty():
    # Two far-apart clusters; the only site sits in the first one.
    positions = [Point(float(i), 0.0) for i in range(5)]
    positions += [Point(100.0 + i, 0.0) for i in range(3)]
    net = build_network(positions, radio=UnitDiskRadio(1.1))
    vor = build_voronoi(net, [1])
    assert vor.records == loop_voronoi_records(vor.dist, vor.sites, 1)
    assert vor.records[5:] == [[], [], []]
    assert all(type(v) is int for rec in vor.records for pair in rec for v in pair)


# ---------------------------------------------------------------------------
# Stage-4 ring search
# ---------------------------------------------------------------------------

def _adjacency(graph):
    return [(u, list(nbrs.items())) for u, nbrs in graph.adj.items()]


def test_site_cycle_rings_leaves_graph_untouched():
    g = nx.Graph()
    g.add_edge(1, 2, weight=2, color="red")
    g.add_edge(3, 4)  # no weight: counts as 1
    g.add_edge(2, 3, weight=1)
    g.add_edge(4, 1, weight=1)
    g.add_edge(1, 3, weight=2)
    before = _adjacency(g)
    rings = site_cycle_rings(g)
    assert _adjacency(g) == before
    assert g[1][2] == {"weight": 2, "color": "red"}
    assert g[3][4] == {}
    assert rings == nx_site_cycle_rings(g.copy())


@st.composite
def tie_heavy_graphs(draw):
    """A random site graph with weights from {1, 2}, nodes and edges added
    in random order, plus a random sequence of edges to remove."""
    n = draw(st.integers(min_value=3, max_value=14))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=2,
                           max_size=min(len(pairs), 30), unique=True))
    weights = draw(st.lists(st.integers(1, 2), min_size=len(chosen),
                            max_size=len(chosen)))
    node_order = draw(st.permutations(range(n)))
    removals = draw(st.lists(st.integers(0, len(chosen) - 1), max_size=12))
    graph = nx.Graph()
    graph.add_nodes_from(node_order)
    for (a, b), w in zip(chosen, weights):
        graph.add_edge(a, b, weight=w)
    return graph, removals


@given(tie_heavy_graphs())
@settings(max_examples=150, deadline=None)
def test_site_graph_rings_track_networkx_under_removals(case):
    graph, removals = case
    fast = SiteGraph({u: {v: d["weight"] for v, d in nbrs.items()}
                      for u, nbrs in graph.adj.items()})
    assert fast.rings() == nx_site_cycle_rings(graph)
    for pick in removals:
        edges = list(graph.edges())
        if not edges:
            break
        u, v = edges[pick % len(edges)]
        graph.remove_edge(u, v)
        fast.remove_edge(u, v)
        assert fast.rings() == nx_site_cycle_rings(graph)
        assert fast.edges() == list(graph.edges())


def _loop_records(result):
    return [(loop.sites, loop.ordered, loop.is_fake, loop.witnesses,
             loop.iso_ratio, loop.removed_pair)
            for loop in result.loop_analysis.loops]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(PAPER_SCENARIOS))
def test_identify_loops_matches_networkx_loop(monkeypatch, name, seed):
    net = PAPER_SCENARIOS[name].build(seed=seed, num_nodes=600)
    fast = SkeletonExtractor().extract(net)
    monkeypatch.setattr(loops_module, "SiteGraph", NxSiteGraph)
    slow = SkeletonExtractor().extract(net)
    assert diff_results(slow, fast) == []
    assert _loop_records(fast) == _loop_records(slow)


def test_site_graph_from_pair_paths_matches_networkx_build():
    pair_paths = {(0, 2): [0, 5, 2], (1, 2): [1, 2], (0, 1): [0, 7, 8, 1], (2, 9): [2, 9]}
    fast = SiteGraph.from_pair_paths([2, 1, 0], pair_paths)
    slow = NxSiteGraph.from_pair_paths([2, 1, 0], pair_paths).graph
    assert [(u, list(nbrs.items())) for u, nbrs in fast.adj.items()] == [
        (u, [(v, d["weight"]) for v, d in nbrs.items()]) for u, nbrs in slow.adj.items()
    ]
    assert fast.number_of_edges() == slow.number_of_edges()
