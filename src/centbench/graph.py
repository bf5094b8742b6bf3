"""Immutable undirected simple graph with dense integer node and edge ids.

Nodes are ``0..n-1``. Every undirected edge ``{u, v}`` gets a dense edge id
in ``0..m-1``, assigned in the order the edges were supplied, so seeded
experiments produce identical edge ids run after run. Adjacency is stored in
CSR form (``indptr`` / ``adj``) with each neighbor row sorted ascending, and
``adj_eids`` carries the edge id of each adjacency slot. ``bfs_levels`` is
the one single-source level-synchronous BFS; it yields the shortest-path
DAG level by level, which Brandes betweenness walks, and the nodes each
level reaches, which the component search reads. Closeness runs its own
bit-parallel BFS over blocks of sources.

Graphs are frozen after construction; every algorithm in the package treats
them as read-only, which makes them safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction input (self-loop, bad id, duplicate edge)."""


@dataclass(frozen=True, repr=False)
class Graph:
    n: int
    m: int
    indptr: np.ndarray    # int64, length n+1
    adj: np.ndarray       # int64, length 2m, neighbors, sorted within each row
    adj_eids: np.ndarray  # int64, length 2m, edge id of each adjacency slot
    edge_u: np.ndarray    # int64, length m, smaller endpoint of each edge id
    edge_v: np.ndarray    # int64, length m, larger endpoint of each edge id
    degrees: np.ndarray   # int64, length n

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of ``u`` (a read-only view)."""
        return self.adj[self.indptr[u]:self.indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and row[i] == v

    def edge_id(self, u: int, v: int) -> int:
        """Dense id of edge ``{u, v}``; raises GraphError if absent."""
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        if i >= row.size or row[i] != v:
            raise GraphError(f"no edge between {u} and {v}")
        return int(self.adj_eids[self.indptr[u] + i])

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        return int(self.edge_u[eid]), int(self.edge_v[eid])

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, ordered by edge id."""
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(edges, n: int) -> Graph:
    """Build an immutable simple graph from an edge list.

    Args:
        edges: unordered node-id pairs, as an iterable of pairs or a
            ``(m, 2)`` array; ids must lie in 0..n-1.
        n: node count.

    Raises:
        GraphError: on a self-loop, an out-of-range id, or a duplicate edge
            (the same unordered pair supplied twice), naming the first
            offending edge in input order.
    """
    if n < 0:
        raise GraphError(f"node count must be non-negative, got {n}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        raw = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
    except OverflowError:  # ids beyond int64, all outside the node range
        raw = np.asarray(edges, dtype=object).reshape(len(edges), 2)
    loop = raw[:, 0] == raw[:, 1]
    outside = ((raw < 0) | (raw >= n)).any(axis=1)
    e = np.where(outside[:, None], 0, raw).astype(np.int64, copy=False)
    lo, hi = e.min(axis=1), e.max(axis=1)
    # flag every later occurrence of a key (the stable sort keeps input
    # order); a spurious flag can only follow an edge that is bad itself
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    bad = loop | outside
    bad[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
    if bad.any():
        i = int(np.argmax(bad))
        a, b = int(raw[i, 0]), int(raw[i, 1])
        if loop[i]:
            raise GraphError(f"self-loop at node {a}")
        if outside[i]:
            raise GraphError(f"edge ({a}, {b}) outside node range 0..{n - 1}")
        raise GraphError(f"duplicate edge {(min(a, b), max(a, b))}")

    m = lo.size
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    eids = np.tile(np.arange(m, dtype=np.int64), 2)
    order = np.lexsort((dst, src))
    adj = dst[order]
    adj_eids = eids[order]
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return Graph(n=n, m=m, indptr=indptr, adj=adj, adj_eids=adj_eids,
                 edge_u=lo, edge_v=hi, degrees=degrees)


def bfs_levels(g: Graph, source: int, dist: np.ndarray):
    """Level-synchronous BFS from ``source``: the package's one frontier loop.

    ``dist`` must hold -1 at every unreached node and is filled in place.
    Yields ``(tails, heads, fresh)`` per frontier, the nodes at one distance
    from ``source``, starting with the source itself. ``tails[i] -> heads[i]``
    are the arcs of the shortest-path DAG out of the frontier: every
    adjacency slot of a frontier node whose head was unreached, so the head
    is one level further out. They come in ascending (tail, head) order,
    since the frontier is sorted and each adjacency row is. ``fresh`` is the
    sorted unique ``heads``, whose ``dist`` is already set; it is
    deduplicated by a sort and an adjacent-difference mask. The last
    ``fresh`` is empty.
    """
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    lev = 0
    while True:
        cnts = g.degrees[frontier]
        ends = np.cumsum(cnts)
        slots = np.repeat(g.indptr[frontier] - (ends - cnts), cnts) + np.arange(ends[-1])
        nbrs = g.adj[slots]
        advance = dist[nbrs] == -1
        heads = nbrs[advance]
        tails = np.repeat(frontier, cnts)[advance]
        fresh = np.sort(heads)
        first = np.ones(fresh.size, dtype=bool)
        first[1:] = fresh[1:] != fresh[:-1]
        fresh = fresh[first]
        dist[fresh] = lev + 1
        yield tails, heads, fresh
        if fresh.size == 0:
            return
        frontier = fresh
        lev += 1


def connected_components(g: Graph) -> list[np.ndarray]:
    """All connected components (sorted node ids), by smallest node id."""
    dist = np.full(g.n, -1, dtype=np.int64)
    comps = []
    for s in range(g.n):
        if dist[s] == -1:
            levels = [fresh for *_, fresh in bfs_levels(g, s, dist)]
            comps.append(np.sort(np.concatenate([[s], *levels])))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def largest_connected_component(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the largest component, densely relabeled.

    Ties between equal-sized components go to the one containing the
    smallest node id. Returns the subgraph and the injective old-id to
    new-id mapping. Edge ids keep their relative order from the parent
    graph, so subgraph construction is deterministic.

    Raises:
        GraphError: if the graph has no nodes.
    """
    if g.n == 0:
        raise GraphError("empty graph has no components")
    best: np.ndarray | None = None
    for comp in connected_components(g):
        if best is None or comp.size > best.size:
            best = comp
    assert best is not None
    relabel = np.full(g.n, -1, dtype=np.int64)
    relabel[best] = np.arange(best.size, dtype=np.int64)
    keep = relabel[g.edge_u] >= 0
    sub = build_graph(relabel[np.stack([g.edge_u[keep], g.edge_v[keep]], axis=1)],
                      int(best.size))
    mapping = {int(old): int(new) for new, old in enumerate(best.tolist())}
    return sub, mapping


def parse_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse the edge-list text format.

    One edge per line: two whitespace-separated non-negative integers.
    Lines starting with ``#`` and blank lines are ignored. The node count is
    inferred as ``max id + 1`` unless given explicitly.
    """
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer node id in {line!r}") from exc
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative node id in {line!r}")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if n is None:
        n = max_id + 1
    return build_graph(edges, n)


def read_edge_list(path, n: int | None = None) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read(), n=n)


def format_edge_list(g: Graph) -> str:
    """A graph in the edge-list text format: a header line, then one
    ``u v`` line per edge in edge-id order."""
    return f"# nodes: {g.n} edges: {g.m}\n" + "".join(
        f"{u} {v}\n" for u, v in g.edge_list())


def write_edge_list(g: Graph, path) -> None:
    """Write a graph in the edge-list text format (edge-id order)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
