"""Exact node centralities: degree, betweenness, closeness, clustering.

Conventions:

* Degree centrality is ``d_i / (n - 1)``.
* Betweenness sums, over unordered node pairs ``{h, k}`` with ``i`` not an
  endpoint, the fraction of shortest h-k paths that pass through ``i``.
  Unreachable pairs contribute 0 and no normalization is applied. Computed
  with Brandes' single-source accumulation, O(nm) on unweighted graphs.
* Closeness is ``n / sum_j d_ij`` with the network size in the numerator.
  The constant factor relative to the common ``(n-1)`` variant is irrelevant
  to any correlation analysis, which is this library's use case. Computed
  by a bit-parallel BFS from 256 sources at a time, with exact integer
  distance sums.
* The clustering coefficient is ``2 T_i / (d_i (d_i - 1))``, defined as 0
  for degree <= 1 where the ratio would be 0/0. The triangle counts ``T_i``
  come from one degree-ordered forward count (``triangle_counts``) in
  O(m + sum_i d+_i^2) time and memory, where ``d+_i <= sqrt(2m)`` is the
  number of neighbours ranked above ``i``.

Betweenness walks, per source, the shortest-path DAG that
``graph.bfs_levels`` yields level by level: the forward pass counts paths
along each level's arcs, and the backward pass walks the same arcs in
reverse, so no arc is tested twice and no non-DAG arc is stored. Closeness
needs only how many nodes each level reaches, so it does not walk
``bfs_levels`` per source: one level step serves a whole block of sources.

Distances are unweighted hop counts. The tests check Brandes against
``oracle_betweenness`` in ``tests/reference.py``, which recomputes
betweenness from scratch by all-pairs BFS path counting, and bit for bit
against ``level_mask_brandes``, which re-masks every level's arcs by
distance in both passes. They check closeness against
``oracle_closeness``, one deque BFS per source.
"""
from __future__ import annotations

import numpy as np

from .graph import Graph, bfs_levels


# sources per bit-parallel closeness BFS, a multiple of 64; the bitsets are
# little-endian words so that their bytes unpack in source order
_BLOCK = 256
_WORD = np.dtype("<u8")


class DisconnectedGraphError(ValueError):
    """An operation requiring a connected graph saw an unreachable pair."""


def degree_centrality(g: Graph) -> np.ndarray:
    if g.n < 2:
        raise ValueError(f"degree centrality needs n >= 2, got n={g.n}")
    return g.degrees / (g.n - 1)


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Unnormalized betweenness over unordered pairs, endpoints excluded."""
    n = g.n
    bc = np.zeros(n, dtype=np.float64)
    if n < 3 or g.m == 0:
        return bc
    for s in range(n):
        if g.degrees[s] == 0:
            continue
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        sigma[s] = 1.0
        dag = []  # (tails, heads) of each level, walked back in reverse
        for tails, heads, _ in bfs_levels(g, s, dist):
            sigma += np.bincount(heads, weights=sigma[tails], minlength=n)
            dag.append((tails, heads))
        delta = np.zeros(n, dtype=np.float64)
        # the source's own dependency is never used, so skip its level
        for tails, heads in reversed(dag[1:]):
            contrib = sigma[tails] / sigma[heads] * (1.0 + delta[heads])
            delta += np.bincount(tails, weights=contrib, minlength=n)
        bc += delta
    # each unordered pair was accumulated from both endpoints
    return bc / 2.0


def closeness_centrality(g: Graph) -> np.ndarray:
    """Closeness ``n / sum_j d_ij`` on a connected graph.

    One bit-parallel BFS serves each block of ``_BLOCK`` sources (Then et
    al., "The More the Merrier", VLDB 2014). Every node holds one bit per
    source of the block, for the frontier and for the visited set; a level
    step ORs each node's neighbour rows, and the bits newly set count the
    nodes each source reaches at that level. The distance sums are exact
    integers, ``sum_lev lev * count``.

    Raises:
        DisconnectedGraphError: naming the smallest node that node 0 cannot
            reach.
        ValueError: if n < 2 (the distance sum would be empty).
    """
    n = g.n
    if n < 2:
        raise ValueError(f"closeness needs n >= 2, got n={g.n}")
    # one BFS from node 0 checks connectivity, so every node has a
    # neighbour and no reduceat segment below is empty
    dist = np.full(n, -1, dtype=np.int64)
    for _ in bfs_levels(g, 0, dist):
        pass
    if dist.min() == -1:
        missing = int(np.flatnonzero(dist == -1)[0])
        raise DisconnectedGraphError(
            f"node {missing} is unreachable from node 0")
    out = np.empty(n, dtype=np.float64)
    starts = g.indptr[:-1]
    for b0 in range(0, n, _BLOCK):
        cols = np.arange(min(_BLOCK, n - b0), dtype=np.uint64)
        visited = np.zeros((n, _BLOCK // 64), dtype=_WORD)
        visited[b0 + cols, cols // 64] = np.uint64(1) << cols % 64
        front = visited.copy()
        total = np.zeros(_BLOCK, dtype=np.int64)
        lev = 1
        while True:
            new = np.bitwise_or.reduceat(front[g.adj], starts, axis=0)
            new &= ~visited
            if not new.any():
                break
            visited |= new
            bits = np.unpackbits(new.view(np.uint8), axis=1, bitorder="little")
            total += lev * bits.sum(axis=0, dtype=np.int64)
            front = new
            lev += 1
        out[b0:b0 + cols.size] = n / total[:cols.size]
    return out


def triangle_counts(g: Graph) -> np.ndarray:
    """Number of triangles through each node (exact).

    Degree-ordered forward count ("compact-forward", Latapy 2008): rank the
    nodes by (degree, id) and orient each edge from its lower- to its
    higher-ranked end. Every triangle is then the wedge ``a -> b, a -> c``
    of exactly one node ``a`` whose out-row holds ``b`` and ``c``, closed by
    the edge ``b -> c``. All wedges are listed at once and their closing
    edges looked up by binary search in the sorted oriented-edge keys. The
    work and memory are O(m + sum_a d+(a)^2), and under degree order every
    out-degree d+ is at most sqrt(2m).
    """
    n = g.n
    if g.m == 0:
        return np.zeros(n, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(n)
    ru, rv = rank[g.edge_u], rank[g.edge_v]
    # one key per oriented edge, tail * n + head in rank space; sorting the
    # keys groups the edges by tail with each out-row in ascending head rank
    keys = np.sort(np.minimum(ru, rv) * n + np.maximum(ru, rv))
    tail, head = np.divmod(keys, n)
    # slot i pairs with every later slot j of its row: wedge (head[i], head[j])
    later = np.cumsum(np.bincount(tail, minlength=n))[tail] - np.arange(g.m) - 1
    first = np.repeat(np.arange(g.m), later)
    offsets = np.cumsum(later) - later
    second = first + 1 + np.arange(first.size) - np.repeat(offsets, later)
    closing = head[first] * n + head[second]
    pos = np.minimum(np.searchsorted(keys, closing), g.m - 1)
    hit = keys[pos] == closing
    corners = np.concatenate([tail[first[hit]], head[first[hit]],
                              head[second[hit]]])
    return np.bincount(corners, minlength=n)[rank]


def clustering_coefficient(g: Graph) -> np.ndarray:
    """Local clustering: triangles through i over d_i(d_i-1)/2; 0 if d_i <= 1."""
    tri = triangle_counts(g)
    d = g.degrees.astype(np.float64)
    denom = d * (d - 1.0)
    out = np.zeros(g.n, dtype=np.float64)
    mask = g.degrees >= 2
    out[mask] = 2.0 * tri[mask] / denom[mask]
    return out
