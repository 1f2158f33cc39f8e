"""Per-shard task functions, picklable for :class:`~repro.resilience.ResilientRunner`.

Three task kinds, one per parallel phase of the sharded pipeline:

* :func:`stage1_tile_task` — indices + critical-node election on one
  tile's halo-expanded subgraph, reported for owned nodes only;
* :func:`flood_batch_task` — Voronoi flooding of one batch of sites over
  the *full* graph, returning each node's near-best candidate records;
* :func:`paths_batch_task` — reverse-path realization for one batch of
  sites' connector endpoints.

All three are pure functions of their config dicts (the executor's
contract), read the executor's :func:`~repro.resilience.task_context` for
the artifact cache and tracer, and honour ``params.backend`` so the sharded
pipeline is exact under either traversal implementation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.identification import find_critical_nodes
from ..core.neighborhood import compute_indices
from ..network.graph import UNREACHED, SensorNetwork
from ..resilience import task_context

__all__ = ["stage1_tile_task", "flood_batch_task", "paths_batch_task"]

#: Sentinel larger than any hop distance, for unreached-aware minima.
_FAR = np.iinfo(np.int32).max


def stage1_tile_task(config: Dict) -> Dict:
    """Stage 1 on one tile: per-owned-node statistics and elected sites.

    ``config`` carries the tile's induced subgraph (``subnet``), the
    local indices of its owned nodes (``owned_local``), the global ids of
    all members (``members``) and the :class:`SkeletonParams`.  Index
    values and elections for owned nodes are exact because the halo
    completes every ball they depend on (see :mod:`repro.shard.plan`).
    """
    cache, tracer = task_context(config.get("cache_dir"))
    subnet: SensorNetwork = config["subnet"]
    params = config["params"]
    members = np.asarray(config["members"], dtype=np.int64)
    owned_local = np.asarray(config["owned_local"], dtype=np.int64)

    index_data = compute_indices(subnet, params, cache=cache, tracer=tracer)
    critical_local = find_critical_nodes(subnet, index_data, params)

    khop = np.asarray(index_data.khop_sizes, dtype=np.int64)
    centrality = np.asarray(index_data.centrality, dtype=np.float64)
    index = np.asarray(index_data.index, dtype=np.float64)
    owned_set = set(int(v) for v in owned_local)
    critical_global = [int(members[v]) for v in critical_local
                       if int(v) in owned_set]
    return {
        "tile": config["tile"],
        "owned": members[owned_local],
        "khop": khop[owned_local],
        "centrality": centrality[owned_local],
        "index": index[owned_local],
        "critical": np.asarray(sorted(critical_global), dtype=np.int64),
    }


def _flood(network: SensorNetwork, sites: List[int], params,
           tracer=None) -> Tuple[np.ndarray, np.ndarray]:
    """``(dist, parent)`` for *sites*, backend-switched.

    Bit-identical across backends and across batch splits: each row of a
    multi-source flood depends only on its own source, so flooding a
    subset of sites reproduces exactly those rows of the full flood.
    """
    if params.backend == "vectorized":
        engine = network.traversal(params.traversal_batch_width)
        return engine.multi_source_distances(sites, tracer=tracer)
    return network.multi_source_distances(sites)


def flood_batch_task(config: Dict) -> Dict:
    """Voronoi flood for one site batch over the full graph.

    Returns, per node, the best distance to any batch site (``best``,
    ``_FAR`` where the batch reaches nothing) and every ``(node, site,
    dist)`` candidate within ``alpha`` of that batch-best.  The batch
    threshold is at least the global threshold, so the union of batch
    candidate sets is a superset of the monolithic record set — the merge
    re-filters against the global best, an associative reduction.
    """
    cache, tracer = task_context(config.get("cache_dir"))
    network: SensorNetwork = config["network"]
    params = config["params"]
    sites = [int(s) for s in config["sites"]]

    def build() -> Dict:
        dist, _parent = _flood(network, sites, params, tracer=tracer)
        masked = np.where(dist == UNREACHED, _FAR, dist).astype(np.int64)
        best = masked.min(axis=0)
        keep = (masked != _FAR) & (masked <= best + params.alpha)
        rows, cols = np.nonzero(keep)
        return {
            "best": best,
            "cand_node": cols.astype(np.int64),
            "cand_site": np.asarray(sites, dtype=np.int64)[rows],
            "cand_dist": masked[rows, cols],
        }

    if cache is not None:
        return cache.get_or_build(
            "shard:flood",
            (network.content_hash(), tuple(sites), params.alpha),
            build, tracer=tracer,
        )
    return build()


def paths_batch_task(config: Dict) -> Dict:
    """Reverse paths from connector endpoints to one batch of sites.

    ``config["requests"]`` maps each site of the batch to its sorted
    endpoint list.  Re-floods exactly the requested sites (row
    independence again) and walks the stored parents — the same kernels
    the monolithic coarse builder uses, so every path matches node for
    node.  Returns ``{(site, endpoint): path}`` with paths running
    endpoint → site.
    """
    cache, tracer = task_context(config.get("cache_dir"))
    network: SensorNetwork = config["network"]
    params = config["params"]
    requests: List[Tuple[int, Tuple[int, ...]]] = [
        (int(site), tuple(int(t) for t in targets))
        for site, targets in config["requests"]
    ]
    sites = [site for site, _ in requests]

    def build() -> Dict:
        dist, parent = _flood(network, sites, params, tracer=tracer)
        out: Dict[Tuple[int, int], List[int]] = {}
        for si, (site, targets) in enumerate(requests):
            for node in targets:
                if dist[si, node] == UNREACHED:
                    raise ValueError(
                        f"node {node} was not reached from site {site}")
            if params.backend == "vectorized":
                engine = network.traversal(params.traversal_batch_width)
                paths = engine.reconstruct_paths(parent[si], list(targets),
                                                 tracer=tracer)
            else:
                paths = [network.path_to_source(parent[si], node)
                         for node in targets]
            for node, path in zip(targets, paths):
                out[(site, node)] = path
        return out

    if cache is not None:
        return cache.get_or_build(
            "shard:paths",
            (network.content_hash(), tuple(requests), params.alpha),
            build, tracer=tracer,
        )
    return build()
