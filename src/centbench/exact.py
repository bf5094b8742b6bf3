"""Exact node centralities: degree, betweenness, closeness, clustering.

Conventions:

* Degree centrality is ``d_i / (n - 1)``.
* Betweenness sums, over unordered node pairs ``{h, k}`` with ``i`` not an
  endpoint, the fraction of shortest h-k paths that pass through ``i``.
  Unreachable pairs contribute 0 and no normalization is applied. Computed
  with Brandes' single-source accumulation, O(nm) on unweighted graphs, in
  blocks of up to 256 sources that have an edge.
* Closeness is ``n / sum_j d_ij`` with the network size in the numerator.
  The constant factor relative to the common ``(n-1)`` variant is irrelevant
  to any correlation analysis, which is this library's use case. Computed
  by a bit-parallel BFS from 256 sources at a time, with exact integer
  distance sums.
* The clustering coefficient is ``2 T_i / (d_i (d_i - 1))``, defined as 0
  for degree <= 1 where the ratio would be 0/0. The triangle counts ``T_i``
  come from one degree-ordered forward count (``triangle_counts``) in
  O(m + sum_i d+_i^2) time, where ``d+_i <= sqrt(2m)`` is the number of
  neighbours ranked above ``i``, and in O(m) memory plus one chunk of at
  most ``max(_WEDGES, max_i d+_i)`` wedges.

One bit-parallel level step (``_bit_levels``) runs the BFS of a whole
block of sources at once and serves both distance measures. Closeness sums
the nodes each level reaches. Betweenness writes the levels into a
distance row per source, masks that source's shortest-path DAG out of the
adjacency slots in one step, and walks the DAG level by level: the forward
pass counts paths along each level's arcs, and the backward pass walks the
same arcs in reverse.

Distances are unweighted hop counts. The tests check Brandes against
``oracle_betweenness`` in ``tests/reference.py``, which recomputes
betweenness from scratch by all-pairs BFS path counting, and bit for bit
against ``level_mask_brandes``, which re-masks every level's arcs by
distance in both passes. They check closeness against
``oracle_closeness``, one deque BFS per source.
"""
from __future__ import annotations

import numpy as np

from .graph import Graph, component_labels


# sources per bit-parallel BFS, a multiple of 64; the bitsets are
# little-endian words so that their bytes unpack in source order
_BLOCK = 256
_WORD = np.dtype("<u8")
# wedges that triangle_counts lists at once, unless one slot has more
_WEDGES = 1 << 15


class DisconnectedGraphError(ValueError):
    """An operation requiring a connected graph saw an unreachable pair."""


def degree_centrality(g: Graph) -> np.ndarray:
    if g.n < 2:
        raise ValueError(f"degree centrality needs n >= 2, got n={g.n}")
    return g.degrees / (g.n - 1)


def _bit_levels(g: Graph, sources: np.ndarray):
    """Bit-parallel BFS from a block of at most ``_BLOCK`` sources.

    One BFS serves the whole block (Then et al., "The More the Merrier",
    VLDB 2014). Every node holds one bit per source of the block, for the
    frontier and for the visited set; a level step ORs each node's
    neighbour rows, and the bits not yet visited are the ones that level
    sets. Yields ``(lev, bits)`` for ``lev = 1, 2, ...``: ``bits`` is an
    ``(n, _BLOCK)`` uint8 array, 1 where source ``sources[j]`` first
    reaches node ``v`` at distance ``lev``. Stops after the last level that
    reaches a node.

    The step reduces over the rows of nodes with a neighbour only:
    ``reduceat`` gives an empty segment its start element, not 0, so an
    isolated node would take its successor's row.
    """
    live = np.flatnonzero(g.degrees)
    starts = g.indptr[live]
    cols = np.arange(sources.size, dtype=np.uint64)
    visited = np.zeros((g.n, _BLOCK // 64), dtype=_WORD)
    visited[sources, cols // 64] = np.uint64(1) << cols % 64
    front = visited.copy()
    lev = 1
    while True:
        new = np.zeros_like(visited)
        new[live] = np.bitwise_or.reduceat(front[g.adj], starts, axis=0)
        new &= ~visited
        if not new.any():
            return
        visited |= new
        yield lev, np.unpackbits(new.view(np.uint8), axis=1, bitorder="little")
        front = new
        lev += 1


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Unnormalized betweenness over unordered pairs, endpoints excluded."""
    n = g.n
    bc = np.zeros(n, dtype=np.float64)
    rows = np.repeat(np.arange(n), g.degrees)  # the tail of each adjacency slot
    # the narrowest type that holds every distance: the stable sort of
    # int16 level keys is a radix sort
    dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
    # an isolated source adds nothing, and the rest keep ascending order
    live = np.flatnonzero(g.degrees)
    for b0 in range(0, live.size, _BLOCK):
        sources = live[b0:b0 + _BLOCK]
        dist = np.full((_BLOCK, n), -1, dtype=dtype)
        dist[np.arange(sources.size), sources] = 0
        for lev, bits in _bit_levels(g, sources):
            np.putmask(dist, bits.T, lev)
        for s, d in zip(sources.tolist(), dist):
            # the DAG arcs, one level above their tail; an unreachable tail
            # has only unreachable heads, at -1, so it yields no arc. The
            # stable sort by level keeps each level's arcs in ascending
            # (tail, head) slot order.
            dt = d[rows]
            arc = np.flatnonzero(d[g.adj] == dt + 1)
            lv = dt[arc]
            order = np.argsort(lv, kind="stable")
            tails, heads = rows[arc[order]], g.adj[arc[order]]
            sigma = np.zeros(n, dtype=np.float64)
            sigma[s] = 1.0
            dag = []  # (tails, heads) of each level, walked back in reverse
            lo = 0
            for hi in np.cumsum(np.bincount(lv)).tolist():
                t, h = tails[lo:hi], heads[lo:hi]
                sigma += np.bincount(h, weights=sigma[t], minlength=n)
                dag.append((t, h))
                lo = hi
            delta = np.zeros(n, dtype=np.float64)
            # the source's own dependency is never used, so skip its level
            for t, h in reversed(dag[1:]):
                contrib = sigma[t] / sigma[h] * (1.0 + delta[h])
                delta += np.bincount(t, weights=contrib, minlength=n)
            bc += delta
    # each unordered pair was accumulated from both endpoints
    return bc / 2.0


def closeness_centrality(g: Graph) -> np.ndarray:
    """Closeness ``n / sum_j d_ij`` on a connected graph.

    ``_bit_levels`` runs one BFS per block of ``_BLOCK`` sources, and the
    bits each level sets count the nodes each source reaches at that level.
    The distance sums are exact integers, ``sum_lev lev * count``. The
    graph is checked first by ``component_labels``: node 0's label is 0,
    so the first nonzero label is the smallest node it cannot reach.

    Raises:
        DisconnectedGraphError: naming the smallest node that node 0 cannot
            reach.
        ValueError: if n < 2 (the distance sum would be empty).
    """
    n = g.n
    if n < 2:
        raise ValueError(f"closeness needs n >= 2, got n={g.n}")
    labels = component_labels(g)
    if labels.any():
        missing = int(np.flatnonzero(labels)[0])
        raise DisconnectedGraphError(
            f"node {missing} is unreachable from node 0")
    out = np.empty(n, dtype=np.float64)
    for b0 in range(0, n, _BLOCK):
        sources = np.arange(b0, min(b0 + _BLOCK, n))
        total = np.zeros(_BLOCK, dtype=np.int64)
        for lev, bits in _bit_levels(g, sources):
            total += lev * bits.sum(axis=0, dtype=np.int64)
        out[b0:b0 + sources.size] = n / total[:sources.size]
    return out


def triangle_counts(g: Graph) -> np.ndarray:
    """Number of triangles through each node (exact).

    Degree-ordered forward count ("compact-forward", Latapy 2008): rank the
    nodes by (degree, id) and orient each edge from its lower- to its
    higher-ranked end. Every triangle is then the wedge ``a -> b, a -> c``
    of exactly one node ``a`` whose out-row holds ``b`` and ``c``, closed by
    the edge ``b -> c``. The wedges are listed for chunks of consecutive
    out-edge slots with at most ``_WEDGES`` wedges together (a slot with
    more is a chunk of its own), their closing edges looked up by binary
    search in the sorted oriented-edge keys, and each chunk's exact corner
    counts added up. The work is O(m + sum_a d+(a)^2), and under degree
    order every out-degree d+ is at most sqrt(2m); a slot has fewer than
    d+ wedges, so the memory is O(m) plus ``max(_WEDGES, d+)`` wedges.
    The ranks, keys and wedge slot indices are held in the narrowest type
    that holds every key, int32 up to n = 46,341 and int64 beyond; the
    counts are int64.
    """
    n, m = g.n, g.m
    if m == 0:
        return np.zeros(n, dtype=np.int64)
    # the largest key, tail rank n - 2 and head rank n - 1, is n * n - n - 1;
    # a slot index is below m < n * n / 2
    idx = np.int32 if n * n - n - 1 <= np.iinfo(np.int32).max else np.int64
    rank = np.empty(n, dtype=idx)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(n, dtype=idx)
    ru, rv = rank[g.edge_u], rank[g.edge_v]
    # one key per oriented edge, tail * n + head in rank space; sorting the
    # keys groups the edges by tail with each out-row in ascending head rank
    keys = np.sort(np.minimum(ru, rv) * n + np.maximum(ru, rv))
    del ru, rv
    tail, head = np.divmod(keys, n)
    # slot i pairs with every later slot j of its row: wedge (head[i], head[j])
    later = np.cumsum(np.bincount(tail, minlength=n))[tail] - np.arange(m) - 1
    upto = np.cumsum(later)  # wedges of slots 0..i
    count = np.zeros(n, dtype=np.int64)
    lo = 0
    while lo < m:
        # the slots from lo whose wedges fit in one chunk, and slot lo itself
        limit = upto[lo] - later[lo] + _WEDGES
        hi = max(int(np.searchsorted(upto, limit, side="right")), lo + 1)
        w = later[lo:hi]
        first = np.repeat(np.arange(lo, hi, dtype=idx), w)
        offsets = np.repeat((np.cumsum(w) - w).astype(idx), w)
        second = first + 1 + np.arange(first.size, dtype=idx) - offsets
        closing = head[first] * n + head[second]
        pos = np.minimum(np.searchsorted(keys, closing), m - 1)
        hit = keys[pos] == closing
        count += np.bincount(np.concatenate([tail[first[hit]], head[first[hit]],
                                             head[second[hit]]]), minlength=n)
        lo = hi
    return count[rank]


def clustering_coefficient(g: Graph) -> np.ndarray:
    """Local clustering: triangles through i over d_i(d_i-1)/2; 0 if d_i <= 1."""
    tri = triangle_counts(g)
    d = g.degrees.astype(np.float64)
    denom = d * (d - 1.0)
    out = np.zeros(g.n, dtype=np.float64)
    mask = g.degrees >= 2
    out[mask] = 2.0 * tri[mask] / denom[mask]
    return out
