"""Exact node centralities: degree, betweenness, closeness, clustering.

Conventions:

* Degree centrality is ``d_i / (n - 1)``.
* Betweenness sums, over unordered node pairs ``{h, k}`` with ``i`` not an
  endpoint, the fraction of shortest h-k paths that pass through ``i``.
  Unreachable pairs contribute 0 and no normalization is applied. Computed
  with Brandes' single-source accumulation, O(nm) on unweighted graphs.
* Closeness is ``n / sum_j d_ij`` with the network size in the numerator.
  The constant factor relative to the common ``(n-1)`` variant is irrelevant
  to any correlation analysis, which is this library's use case.
* The clustering coefficient is ``2 T_i / (d_i (d_i - 1))``, defined as 0
  for degree <= 1 where the ratio would be 0/0. The triangle counts ``T_i``
  come from one degree-ordered forward count (``triangle_counts``) in
  O(m + sum_i d+_i^2) time and memory, where ``d+_i <= sqrt(2m)`` is the
  number of neighbours ranked above ``i``.

Betweenness and closeness both walk each source's BFS levels with
``graph.bfs_levels``, the package's one frontier loop; they stay two
functions so that each can be called and timed on its own.

Distances are unweighted hop counts. The tests check Brandes against
``oracle_betweenness`` in ``tests/reference.py``, which recomputes
betweenness from scratch by all-pairs BFS path counting.
"""
from __future__ import annotations

import numpy as np

from .graph import Graph, bfs_levels


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
        arcs = []  # (nbrs, srcs) of each level, reused by the backward pass
        for lev, nbrs, srcs, _ in bfs_levels(g, s, dist):
            advance = dist[nbrs] == lev + 1
            sigma += np.bincount(nbrs[advance], weights=sigma[srcs[advance]],
                                 minlength=n)
            arcs.append((nbrs, srcs))
        delta = np.zeros(n, dtype=np.float64)
        for lev in range(len(arcs) - 1, 0, -1):
            nbrs, srcs = arcs[lev]
            pred = dist[nbrs] == lev - 1
            contrib = (sigma[nbrs[pred]] / sigma[srcs[pred]]
                       * (1.0 + delta[srcs[pred]]))
            delta += np.bincount(nbrs[pred], weights=contrib, minlength=n)
        delta[s] = 0.0
        bc += delta
    # each unordered pair was accumulated from both endpoints
    return bc / 2.0


def closeness_centrality(g: Graph) -> np.ndarray:
    """Closeness ``n / sum_j d_ij`` on a connected graph.

    Raises:
        DisconnectedGraphError: naming the first unreachable pair found.
        ValueError: if n < 2 (the distance sum would be empty).
    """
    n = g.n
    if n < 2:
        raise ValueError(f"closeness needs n >= 2, got n={g.n}")
    out = np.empty(n, dtype=np.float64)
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        total = 0
        reached = 1
        for lev, _, _, fresh in bfs_levels(g, s, dist):
            total += (lev + 1) * int(fresh.size)
            reached += int(fresh.size)
        if reached < n:
            missing = int(np.flatnonzero(dist == -1)[0])
            raise DisconnectedGraphError(
                f"node {missing} is unreachable from node {s}")
        out[s] = n / total
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
