"""Vectorized CSR traversal engine — the hop-count hot path.

Every stage of the paper's pipeline reduces to hop-count BFS over pure
connectivity, and the reference implementation runs it as ~3n independent
pure-Python traversals per extraction.  :class:`TraversalEngine` replaces
those loops with array kernels over a cached :mod:`scipy.sparse` CSR
adjacency matrix (built lazily on :class:`SensorNetwork`; the graph is
immutable, so the cache never needs invalidation):

* :meth:`all_khop_sizes` — ``|N_k(p)|`` for **all** nodes at once, via k
  rounds of boolean frontier expansion (sparse frontier × CSR adjacency)
  over node batches.  Batch width bounds peak memory, so the kernel scales
  past what an ``n × n`` dense reach matrix would allow.
* :meth:`khop_stats` — sizes *and* l-centrality.  When ``l == k`` (the
  paper's default ``k = l = 4``) the k-hop reach rows are reused for the
  centrality accumulation inside the same sweep: because hop-reachability
  is symmetric on an undirected graph, the centrality numerator
  ``Σ_{v ∈ N_l(p)} |N_k(v)|`` is accumulated batch-by-batch as
  ``Rᵀ · sizes[batch]`` without ever materialising the full reach matrix
  or re-running the traversal.
* :meth:`multi_source_distances` — all site waves as level-synchronous
  frontier sweeps with parent recording.  The frontier is kept *ordered*
  (BFS enqueue order) and expanded with segment gathers, so the returned
  ``(dist, parent)`` arrays are **bit-identical** to the reference
  per-node BFS — downstream Voronoi cells, reverse paths and the coarse
  skeleton do not change when switching backends.
* :meth:`all_local_maxima` — critical-node election for all nodes at once
  by iterated neighbour-max over a rank encoding of the lexicographic
  ``(value, id)`` order.

The pure-Python traversals on :class:`SensorNetwork` remain the reference
oracle; ``tests/test_traversal_engine.py`` asserts kernel-for-kernel
equivalence on random UDG/QUDG networks, including disconnected graphs and
``k`` beyond the diameter.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

__all__ = ["TraversalEngine", "DEFAULT_BATCH_WIDTH"]

UNREACHED = -1


def _span(tracer, name: str):
    """A wall-clock span over one engine kernel (no-op without a tracer).

    Spans land in the ``traversal`` category, so
    :class:`~repro.observability.metrics.MetricsReport` breaks the
    vectorized backend's cost out per kernel just like it does for the
    message-passing runtimes.
    """
    if tracer is None:
        return nullcontext()
    return tracer.span(f"traversal:{name}", category="traversal")

DEFAULT_BATCH_WIDTH = 1024
"""Default number of BFS sources expanded per batch (memory knob)."""


class TraversalEngine:
    """Batched frontier-expansion kernels over a CSR adjacency matrix.

    Construct via :meth:`SensorNetwork.traversal`, which caches one engine
    per network (the adjacency is immutable).  ``batch_width`` bounds the
    dense working set of the k-hop sweep to ``batch_width × n`` bytes.
    """

    def __init__(self, network, batch_width: int = DEFAULT_BATCH_WIDTH):
        if batch_width < 1:
            raise ValueError("batch_width must be >= 1")
        self.network = network
        self.batch_width = batch_width
        csr = network.csr_adjacency()
        self._csr = csr
        self._indptr = csr.indptr
        self._indices = csr.indices
        self.n = network.num_nodes
        self._ball1: Optional[sparse.csr_matrix] = None
        self._ball2: Optional[sparse.csr_matrix] = None

    def _ball_operators(self, hops: int) -> list:
        """Reach operators whose radii sum to *hops*.

        ``ball1 = A + I`` and the cached ``ball2 = saturate(ball1²)`` cover
        two hops per round, halving the number of frontier expansions for
        the paper's ``k = 4``.  Expanding a frontier *ring* with a ball
        operator stays exact: a node at distance ``S + d`` (``d ≤ radius``)
        has a node at distance exactly ``S`` on its shortest path, and that
        node is always in the last ring.  The single odd step runs first,
        while the ring is smallest.
        """
        if self._ball1 is None:
            eye = sparse.identity(self.n, dtype=np.int32, format="csr")
            ball1 = (self._csr + eye).tocsr()
            ball1.data.fill(1)
            self._ball1 = ball1
        q, r = divmod(hops, 2)
        if q and self._ball2 is None:
            ball2 = (self._ball1 @ self._ball1).tocsr()
            ball2.data.fill(1)
            self._ball2 = ball2
        return [self._ball1] * r + [self._ball2] * q

    # -- k-hop sizes and l-centrality -------------------------------------

    def all_khop_sizes(self, k: int, include_self: bool = True,
                       tracer=None) -> np.ndarray:
        """``|N_k(p)|`` for every node — batched boolean frontier expansion.

        Matches :meth:`SensorNetwork.k_hop_sizes` exactly (integer array).
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        with _span(tracer, "all_khop_sizes"):
            sizes, _, _ = self._reach_sweep(k, weights=None)
        if not include_self:
            sizes = sizes - 1
        return sizes

    def khop_stats(self, k: int, l: int, include_self: bool = True,
                   tracer=None) -> Tuple[np.ndarray, np.ndarray]:
        """``(|N_k(p)|, c_l(p))`` for every node.

        When ``l == k`` the k-hop reach rows are reused for the centrality
        accumulation in a single sweep; otherwise a second sweep at hop
        radius ``l`` runs with the finished size vector as weights.
        Results are exactly equal to the reference
        :func:`repro.core.neighborhood.compute_khop_sizes` /
        ``compute_l_centrality`` pair (integer sums, identical division).
        """
        if k < 1 or l < 1:
            raise ValueError("k and l must be at least 1")
        offset = 0 if include_self else -1
        with _span(tracer, "khop_stats"):
            if l == k:
                raw, num, cnt = self._reach_sweep(k, weights="row_sizes",
                                                  weight_offset=offset)
                sizes = raw + offset
            else:
                sizes = self.all_khop_sizes(k, include_self=include_self)
                _, num, cnt = self._reach_sweep(l, weights=sizes)
            centrality = self._centrality_from(sizes, num, cnt, include_self)
        return sizes, centrality

    def l_centrality(self, l: int, khop_sizes: Sequence[int],
                     include_self: bool = True, tracer=None) -> np.ndarray:
        """Definition 3 over an arbitrary published size vector."""
        if l < 1:
            raise ValueError("l must be at least 1")
        sizes = np.asarray(khop_sizes, dtype=np.int64)
        if sizes.shape != (self.n,):
            raise ValueError("khop_sizes length must equal the node count")
        with _span(tracer, "l_centrality"):
            _, num, cnt = self._reach_sweep(l, weights=sizes)
            return self._centrality_from(sizes, num, cnt, include_self)

    @staticmethod
    def _centrality_from(sizes: np.ndarray, num: np.ndarray, cnt: np.ndarray,
                         include_self: bool) -> np.ndarray:
        if not include_self:
            # Reach rows always contain the node itself (hop 0); drop it
            # from both the member count and the accumulated numerator.
            num = num - sizes
            cnt = cnt - 1
        members = np.maximum(cnt, 1)
        centrality = num / members
        centrality[cnt <= 0] = 0.0
        return centrality

    def _reach_sweep(self, hops: int, weights=None, weight_offset: int = 0):
        """Batched reach computation at radius *hops*.

        Returns ``(row_sizes, numerator, counts)`` where ``row_sizes[p]``
        is the raw reach size ``|N_hops(p)|`` including p itself, and —
        when *weights* is given — ``numerator[p] = Σ_{s: p ∈ reach(s)}
        w[s]`` and ``counts[p] = |{s : p ∈ reach(s)}|``.  On an undirected
        graph reach is symmetric, so ``counts`` equals ``row_sizes`` and
        ``numerator`` is the centrality sum over ``N_hops(p)``.

        ``weights="row_sizes"`` uses each batch's own finished reach sizes
        (plus *weight_offset*) as the weight vector — the ``l == k`` reuse.
        """
        n = self.n
        row_sizes = np.zeros(n, dtype=np.int64)
        accumulate = weights is not None
        num = np.zeros(n, dtype=np.float64) if accumulate else None
        cnt = np.zeros(n, dtype=np.int64) if accumulate else None
        if n == 0:
            return row_sizes, num, cnt
        operators = self._ball_operators(hops)
        width = self.batch_width
        for start in range(0, n, width):
            batch = np.arange(start, min(start + width, n))
            b = len(batch)
            # Frontier as a sparse b×n row block (expanded by one CSR
            # product per round, O(Σ deg(frontier))); reach as dense bool
            # flags so membership filtering is a flat gather.  Peak memory
            # is the batch_width × n flag matrix.
            reached = np.zeros((b, n), dtype=bool)
            reached[np.arange(b), batch] = True
            reached_flat = reached.reshape(-1)
            ent_rows = [np.arange(b, dtype=np.int64)]
            ent_cols = [batch]
            frontier = None
            for op in operators:
                if frontier is None:
                    # First round from the identity block: the product is
                    # just the operator's rows.
                    cand = op[batch]
                else:
                    if frontier.nnz == 0:
                        break
                    cand = frontier @ op
                if cand.nnz == 0:
                    break
                crows = np.repeat(np.arange(b), np.diff(cand.indptr))
                fresh = ~reached_flat[crows * n + cand.indices]
                if not fresh.any():
                    break
                frows = crows[fresh]
                fcols = cand.indices[fresh].astype(np.int64)
                reached_flat[frows * n + fcols] = True
                ent_rows.append(frows)
                ent_cols.append(fcols)
                # cand's columns are sorted within each row and the fresh
                # filter preserves that, so the next frontier's CSR can be
                # assembled directly from the filtered triplets.
                indptr_new = np.zeros(b + 1, dtype=np.int64)
                np.cumsum(np.bincount(frows, minlength=b), out=indptr_new[1:])
                frontier = sparse.csr_matrix(
                    (np.ones(len(fcols), dtype=np.int32), fcols, indptr_new),
                    shape=(b, n),
                )
            rows_all = np.concatenate(ent_rows)
            cols_all = np.concatenate(ent_cols)
            raw = np.bincount(rows_all, minlength=b)
            row_sizes[batch] = raw
            if accumulate:
                if isinstance(weights, str):  # "row_sizes": the l == k reuse
                    w = raw + weight_offset
                else:
                    w = weights[batch]
                # Weighted bincount sums are integral and < 2^53, so the
                # float64 accumulator is exact.
                num += np.bincount(cols_all, weights=w.astype(np.float64)[rows_all],
                                   minlength=n)
                cnt += np.bincount(cols_all, minlength=n)
        return row_sizes, num, cnt

    # -- frontier sweeps ----------------------------------------------------

    def _gather(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Segment gather: every neighbour of *nodes*, flattened in (node
        order, adjacency order), with each node's degree as its segment
        length — the one frontier-expansion step of every sweep below."""
        starts = self._indptr[nodes]
        lens = self._indptr[nodes + 1] - starts
        seg_ends = np.cumsum(lens)
        within = np.arange(int(lens.sum())) - np.repeat(seg_ends - lens, lens)
        return lens, self._indices[np.repeat(starts, lens) + within]

    # -- multi-source BFS with parent recording ---------------------------

    def multi_source_distances(
        self, sources: Sequence[int], blocked: Optional[Set[int]] = None,
        tracer=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Level-synchronous frontier sweep per site, with parent recording.

        Bit-identical to :meth:`SensorNetwork.multi_source_distances`: the
        frontier is kept in BFS enqueue order and neighbours are gathered
        in (frontier order, adjacency order), so the first occurrence of
        each newly reached node selects exactly the parent the FIFO
        reference BFS records.
        """
        with _span(tracer, "multi_source_distances"):
            return self._multi_source_distances(sources, blocked)

    def _multi_source_distances(
        self, sources: Sequence[int], blocked: Optional[Set[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        m, n = len(sources), self.n
        dist = np.full((m, n), UNREACHED, dtype=np.int32)
        parent = np.full((m, n), -1, dtype=np.int32)
        if m == 0 or n == 0:
            return dist, parent
        blocked_mask = None
        if blocked:
            blocked_mask = np.zeros(n, dtype=bool)
            blocked_mask[list(blocked)] = True
        dist_flat = dist.reshape(-1)
        parent_flat = parent.reshape(-1)
        # All waves advance together, one hop level per iteration; the
        # frontier is the ordered list of (row, node) pairs of every wave.
        frow = np.arange(m, dtype=np.int64)
        fnode = np.asarray(sources, dtype=np.int64)
        dist[frow, fnode] = 0
        level = 0
        while frow.size:
            # Duplicates of a (row, node) key only ever occur within one
            # row, so first occurrence per key in the gather is the parent
            # the FIFO reference BFS assigns, and first-occurrence
            # positions give each row's enqueue order for the next level.
            lens, cand = self._gather(fnode)
            keys = np.repeat(frow, lens) * n + cand
            fresh = dist_flat[keys] == UNREACHED
            if blocked_mask is not None:
                fresh &= ~blocked_mask[cand]
            keys = keys[fresh]
            if keys.size == 0:
                break
            owner = np.repeat(fnode, lens)[fresh]
            uniq, first = np.unique(keys, return_index=True)
            order = np.argsort(first, kind="stable")
            new_keys = uniq[order]
            level += 1
            dist_flat[new_keys] = level
            parent_flat[new_keys] = owner[first][order]
            frow = new_keys // n
            fnode = new_keys - frow * n
        return dist, parent

    # -- distance-only sweeps ----------------------------------------------

    def hop_distances(self, sources: Sequence[int],
                      tracer=None) -> np.ndarray:
        """Exact hop distances from each source to every node.

        Distance-only counterpart of :meth:`multi_source_distances` — no
        parent recording, so the per-level bookkeeping is a plain boolean
        dedup instead of the ordered first-occurrence scan.  Returns an
        ``(m, n)`` int32 array with :data:`UNREACHED` where unreached.
        """
        with _span(tracer, "hop_distances"):
            m, n = len(sources), self.n
            dist = np.full((m, n), UNREACHED, dtype=np.int32)
            if m == 0 or n == 0:
                return dist
            dist_flat = dist.reshape(-1)
            frow = np.arange(m, dtype=np.int64)
            fnode = np.asarray(sources, dtype=np.int64)
            dist[frow, fnode] = 0
            level = 0
            while frow.size:
                lens, cand = self._gather(fnode)
                keys = np.repeat(frow, lens) * n + cand
                keys = np.unique(keys[dist_flat[keys] == UNREACHED])
                if keys.size == 0:
                    break
                level += 1
                dist_flat[keys] = level
                frow = keys // n
                fnode = keys - frow * n
            return dist

    def min_hop_distance(self, sources: Sequence[int],
                         tracer=None) -> np.ndarray:
        """Hop distance from every node to the nearest of *sources*.

        One merged wave (all sources at distance 0) instead of one wave
        per source — the vectorized equivalent of the multi-source BFS
        behind :func:`repro.core.loops.hop_clearance`.  Returns an
        ``(n,)`` int32 array with :data:`UNREACHED` where no source
        reaches.
        """
        with _span(tracer, "min_hop_distance"):
            n = self.n
            dist = np.full(n, UNREACHED, dtype=np.int32)
            frontier = np.unique(np.asarray(list(sources), dtype=np.int64)) \
                if len(sources) else np.empty(0, dtype=np.int64)
            if n == 0 or frontier.size == 0:
                return dist
            dist[frontier] = 0
            level = 0
            while frontier.size:
                _lens, cand = self._gather(frontier)
                frontier = np.unique(cand[dist[cand] == UNREACHED])
                if frontier.size == 0:
                    break
                level += 1
                dist[frontier] = level
            return dist

    # -- batched reverse-path reconstruction -------------------------------

    def reconstruct_paths(self, parent_row: np.ndarray,
                          nodes: Sequence[int],
                          tracer=None) -> List[List[int]]:
        """Walk many parent chains of one BFS row in lockstep.

        Equivalent to calling :meth:`SensorNetwork.path_to_source` once per
        node, but every step is a single gather across all still-walking
        paths, so the per-hop cost is one vectorized op instead of one
        Python loop iteration per path.  Paths are returned in input order,
        each ``[node, ..., source]`` exactly as the reference produces.
        """
        with _span(tracer, "reconstruct_paths"):
            parent = np.asarray(parent_row, dtype=np.int64)
            cur = np.asarray(list(nodes), dtype=np.int64)
            m = cur.size
            if m == 0:
                return []
            alive = np.arange(m, dtype=np.int64)
            step_idx = [alive]
            step_col = [cur]
            # Parent chains are acyclic by construction; n steps is the
            # longest possible simple path, so more means corrupt input.
            for _ in range(self.n + 1):
                nxt = parent[cur]
                keep = nxt != -1
                if not keep.any():
                    break
                alive = alive[keep]
                cur = nxt[keep]
                step_idx.append(alive)
                step_col.append(cur)
            else:
                raise RuntimeError("cycle in parent pointers")
            idx_all = np.concatenate(step_idx)
            col_all = np.concatenate(step_col)
            # Steps were appended in walk order, so a stable sort on the
            # path index groups each path with its hops still in order.
            order = np.argsort(idx_all, kind="stable")
            col_sorted = col_all[order]
            counts = np.bincount(idx_all, minlength=m)
            bounds = np.cumsum(counts)[:-1]
            return [chunk.tolist() for chunk in np.split(col_sorted, bounds)]

    # -- local-maxima election --------------------------------------------

    def all_local_maxima(self, values: Sequence[float],
                         hops: int = 1, tracer=None) -> np.ndarray:
        """Boolean mask of nodes whose ``(value, id)`` beats every node
        within *hops* hops — the Definition 5 election for all nodes at
        once.

        Encodes the lexicographic order as an integer rank and runs *hops*
        rounds of closed-neighbourhood max (iterated 1-hop max over closed
        balls equals the hops-hop closed-ball max).
        """
        if hops < 1:
            raise ValueError("hops must be >= 1")
        n = self.n
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != (n,):
            raise ValueError("values length must equal the node count")
        if n == 0:
            return np.zeros(0, dtype=bool)
        with _span(tracer, "all_local_maxima"):
            order = np.lexsort((np.arange(n), vals))
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n)
            indptr, indices = self._indptr, self._indices
            best = rank.copy()
            if len(indices):
                seg_starts = np.minimum(indptr[:-1], len(indices) - 1)
                empty = indptr[:-1] == indptr[1:]
                for _ in range(hops):
                    seg_max = np.maximum.reduceat(best[indices], seg_starts)
                    seg_max[empty] = -1  # isolated nodes see no neighbours
                    best = np.maximum(best, seg_max)
            return best == rank
