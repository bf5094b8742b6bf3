"""Exact node centralities: degree, betweenness, closeness, clustering.

Conventions:

* Degree centrality is ``d_i / (n - 1)``.
* Betweenness sums, over unordered node pairs ``{h, k}`` with ``i`` not an
  endpoint, the fraction of shortest h-k paths that pass through ``i``.
  Unreachable pairs contribute 0 and no normalization is applied. Computed
  with Brandes' single-source accumulation, O(nm) on unweighted graphs,
  over the sources that have an edge, in groups of 16 or 8.
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
block of sources at once and serves both distance measures: it yields each
level's packed words, one bit per source and node. Closeness sums the
nodes each level reaches. Betweenness keeps a block's words and reads the
shortest-path DAG of every source off them: adjacency slot ``u -> v`` is a
level-``L`` arc of source ``j`` exactly when bit ``j`` of
``words[L - 1][u] & words[L][v]`` is set. It takes the sources in groups,
one lane per source, with node-major ``sigma`` and ``delta`` indexed by
``node * lanes + lane``. The forward pass counts paths along each level's
arcs with one ``bincount`` for the whole group, and the backward pass walks
the same arcs in reverse.

The grouping leaves every bit of the result as one source at a time would
give it, even where path counts pass 2**53 and the float sums round. The
arcs come out slot-major and lane-minor, so each (node, lane) bin of a
``bincount`` takes its terms in ascending slot order, the order of a
per-source pass over the sorted adjacency; a node's bin at its own level
starts from 0 in both passes; every term is the same expression,
``sigma[t] / sigma[h] * (1.0 + delta[h])`` backward; and each lane's
``delta`` is added to the result in ascending source order.

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


# sources per closeness BFS, a multiple of 64; the bitsets are
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
    sets. Yields the packed words of each level, ``lev = 0, 1, ...``: an
    ``(n, words)`` array of little-endian uint64, ``words`` the number of
    64-source words the block needs, whose bit ``j`` is set where source
    ``sources[j]`` first reaches node ``v`` at distance ``lev``. Level 0
    holds the sources' own bits. Stops after the last level that reaches a
    node. No yielded array is written to afterwards.

    The step reduces over the rows of nodes with a neighbour only:
    ``reduceat`` gives an empty segment its start element, not 0, so an
    isolated node would take its successor's row.
    """
    live = np.flatnonzero(g.degrees)
    starts = g.indptr[live]
    cols = np.arange(sources.size, dtype=np.uint64)
    front = np.zeros((g.n, -(-sources.size // 64)), dtype=_WORD)
    front[sources, cols // 64] = np.uint64(1) << cols % 64
    visited = front.copy()
    while front.any():
        yield front
        new = np.zeros_like(visited)
        new[live] = np.bitwise_or.reduceat(front[g.adj], starts, axis=0)
        new &= ~visited
        visited |= new
        front = new


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Unnormalized betweenness over unordered pairs, endpoints excluded.

    The sources that have an edge run in ascending id order, 64 at a time
    through ``_bit_levels``, whose level words are kept (n * 8 bytes per
    level), and then in groups of ``lanes`` through Brandes' two passes,
    one lane per source. A group holds ``sigma`` and ``delta``, node-major
    arrays of ``n * lanes`` doubles, and its DAG arcs, 16 bytes each, so
    the group narrows as n grows: 16 lanes while n <= 1024, whose arrays
    stay well inside a core's 2 MiB L2 cache, and 8 beyond. Each
    level's arcs are read from the words (see the module docstring),
    slot-major and lane-minor, as flat ``node * lanes + lane`` indices.
    They stay int64, since numpy copies narrower indices to int64 at every
    gather and ``bincount``.
    """
    n = g.n
    bc = np.zeros(n, dtype=np.float64)
    lanes = 16 if n <= 1024 else 8
    shift = lanes.bit_length() - 1
    lane_word = np.dtype(f"<u{lanes // 8}")
    size = n * lanes
    # the flat index of lane 0 at the tail and at the head of each slot
    tails = np.repeat(np.arange(n) << shift, g.degrees)
    heads = g.adj << shift
    # an isolated source adds nothing, and the rest keep ascending order
    live = np.flatnonzero(g.degrees)
    for b0 in range(0, live.size, 64):  # one word of sources per BFS
        sources = live[b0:b0 + 64]
        words = [w.view(lane_word) for w in _bit_levels(g, sources)]
        for k in range(0, sources.size, lanes):
            group = sources[k:k + lanes]
            sigma = np.zeros(size, dtype=np.float64)
            sigma[(group << shift) + np.arange(group.size)] = 1.0
            dag = []  # (tails, heads) of each level, walked back in reverse
            for front, new in zip(words, words[1:]):
                # one lane bit per source of the group for each slot u -> v
                w = (np.repeat(front[:, k >> shift], g.degrees)
                     & new[:, k >> shift][g.adj])
                nz = np.flatnonzero(w != 0)  # faster than on the uint words
                if nz.size == 0:  # the group's BFS ended before the block's
                    break
                # bit f of the unpacked words is lane f % lanes of slot
                # nz[f // lanes], whose flat indices are f plus an offset
                f = np.flatnonzero(np.unpackbits(
                    w[nz].view(np.uint8), bitorder="little").view(bool))
                q = f >> shift
                first = np.arange(0, nz.size << shift, lanes)
                t = f + (tails[nz] - first)[q]
                h = f + (heads[nz] - first)[q]
                sigma += np.bincount(h, weights=sigma[t], minlength=size)
                dag.append((t, h))
            delta = np.zeros(size, dtype=np.float64)
            # a source's own dependency is never used, so skip level 1
            for t, h in reversed(dag[1:]):
                contrib = sigma[t] / sigma[h] * (1.0 + delta[h])
                delta += np.bincount(t, weights=contrib, minlength=size)
            for column in delta.reshape(n, lanes).T[:group.size]:
                bc += column
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
        for lev, words in enumerate(_bit_levels(g, sources)):
            bits = np.unpackbits(words.view(np.uint8), axis=1,
                                 bitorder="little")
            total[:bits.shape[1]] += lev * bits.sum(axis=0, dtype=np.int64)
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
