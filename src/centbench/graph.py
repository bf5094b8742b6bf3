"""Immutable undirected simple graph with dense integer node and edge ids.

Nodes are ``0..n-1``. Every undirected edge ``{u, v}`` gets a dense edge id
in ``0..m-1``, assigned in the order the edges were supplied, so seeded
experiments produce identical edge ids run after run. One stable sort of
the adjacency slots gives the CSR form (``indptr`` / ``adj`` / ``adj_eids``,
rows ascending) and shows a repeated edge as equal neighbours in a row.
Components come from ``component_labels``, a hook-and-compress pass over
the edge arrays that the component functions and the closeness check read.
Betweenness and closeness share the package's one BFS, bit-parallel over
blocks of sources, in ``exact``.

Graphs are frozen after construction; every algorithm in the package treats
them as read-only, which makes them safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction input (self-loop, bad id, duplicate edge)."""


def is_int(v) -> bool:
    """Any integer, numpy's included, but not a bool."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def is_int_or_null(v) -> bool:
    return v is None or is_int(v)


def is_number(v) -> bool:
    """Any real number, numpy's included, but not a bool."""
    return isinstance(v, Real) and not isinstance(v, bool)


def check_fields(obj, rules, prefix: str = "") -> None:
    """Raise ValueError "<prefix><name> must be <kind>, got <value>" for the
    first field failing its rule in ``rules``, (names, predicate, kind).
    A field that passes and holds a number is stored as Python's int or
    float, so a numpy scalar reads, and serializes, as its plain twin."""
    for names, ok, kind in rules:
        for name in names:
            if not ok(value := getattr(obj, name)):
                raise ValueError(f"{prefix}{name} must be {kind}, got {value!r}")
            if is_number(value):
                object.__setattr__(obj, name,
                                   int(value) if is_int(value) else float(value))


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

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, ordered by edge id."""
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# the largest n whose largest slot key in _csr, n * n - 1, fits in int64
_MAX_NODES = 3_037_000_499


def build_graph(edges, n: int) -> Graph:
    """Build an immutable simple graph from an edge list.

    Args:
        edges: unordered node-id pairs, as an iterable of pairs or a
            ``(m, 2)`` array; ids must lie in 0..n-1.
        n: node count.

    Raises:
        GraphError: on a node count outside 0.._MAX_NODES, a self-loop, an
            out-of-range id, or a duplicate edge (an unordered pair given
            twice, seen in the rows of the one slot sort), naming the first
            offending edge in input order.
    """
    if n < 0:
        raise GraphError(f"node count must be non-negative, got {n}")
    if n > _MAX_NODES:
        raise GraphError(f"node count must be at most {_MAX_NODES}, got {n}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        raw = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
    except OverflowError:  # ids beyond int64, all outside the node range
        raw = np.asarray(edges, dtype=object).reshape(len(edges), 2)
    # column by column: reductions along rows of two cost several times more
    u, v = raw[:, 0], raw[:, 1]
    loop = u == v
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    lo = np.where(outside, 0, np.minimum(u, v)).astype(np.int64, copy=False)
    hi = np.where(outside, 0, np.maximum(u, v)).astype(np.int64, copy=False)
    g = _csr(lo, hi, n)
    # the stable slot sort puts a later copy of a pair right after the earlier
    # one in its row: flag its edge. Spurious flags fall only on bad edges
    prev = np.concatenate([[-1], g.adj])
    prev[g.indptr] = -1
    bad = loop | outside
    bad[g.adj_eids[g.adj == prev[:-1]]] = True
    if bad.any():
        i = int(np.argmax(bad))
        a, b = int(raw[i, 0]), int(raw[i, 1])
        if loop[i]:
            raise GraphError(f"self-loop at node {a}")
        if outside[i]:
            raise GraphError(f"edge ({a}, {b}) outside node range 0..{n - 1}")
        raise GraphError(f"duplicate edge {(min(a, b), max(a, b))}")
    return g


def _csr(lo: np.ndarray, hi: np.ndarray, n: int) -> Graph:
    """The graph of edges ``(lo[i], hi[i])``, edge i with id i; ``indptr`` is
    sized by the degrees: ``build_graph`` passes bad ids as (0, 0), even at n=0."""
    m = lo.size
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    # one key per slot orders rows by source and each row by neighbour
    order = np.argsort(src * n + dst, kind="stable")
    adj = dst[order]
    adj_eids = order % max(m, 1)  # slot i and slot m + i hold edge i
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    return Graph(n=n, m=m, indptr=indptr, adj=adj, adj_eids=adj_eids,
                 edge_u=lo, edge_v=hi, degrees=degrees)


def component_labels(g: Graph) -> np.ndarray:
    """The smallest node id in each node's component.

    Hook and compress (Shiloach & Vishkin, J. Algorithms 1982): every round
    hooks the larger root of each edge whose ends have different roots under
    the smaller one, then points every node straight at its root. It stops
    when no edge joins two roots. Labels only fall and never leave their
    component, so each root left is its component's smallest id.
    """
    label = np.arange(g.n, dtype=np.int64)
    while True:
        lu, lv = label[g.edge_u], label[g.edge_v]
        if np.array_equal(lu, lv):
            return label
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def is_connected(g: Graph) -> bool:
    return not component_labels(g).any()


def largest_connected_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest component, densely relabeled.

    Ties between equal-sized components go to the one containing the
    smallest node id. Returns the subgraph and ``kept``, the int64 original
    ids of the kept nodes in new-id order: new id ``i`` is old id
    ``kept[i]``. Edge ids keep their relative order from the parent graph,
    so subgraph construction is deterministic. A connected graph is its own
    largest component: it comes back as is, with ``kept = arange(n)``.

    Raises:
        GraphError: if the graph has no nodes.
    """
    if g.n == 0:
        raise GraphError("empty graph has no components")
    labels = component_labels(g)
    if not labels.any():
        return g, np.arange(g.n, dtype=np.int64)
    # argmax takes the first of equal sizes, the smallest label
    kept = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    relabel = np.full(g.n, -1, dtype=np.int64)
    relabel[kept] = np.arange(kept.size, dtype=np.int64)
    keep = relabel[g.edge_u] >= 0
    # relabelling keeps id order, so the kept edges stay valid and ordered
    sub = _csr(relabel[g.edge_u[keep]], relabel[g.edge_v[keep]], int(kept.size))
    return sub, kept


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
