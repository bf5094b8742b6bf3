"""Seeded random-graph generators: Erdős–Rényi, Newman–Watts small-world,
and Holme–Kim scale-free.

Every generator consumes exactly one PCG64 stream seeded by its ``seed``
argument, draws in a fixed order, and assigns edge ids in deterministic
first-appearance order, so a fixed seed reproduces the edge list bit for
bit. The draws come from ``rng._Draws``, which reads PCG64's raw words in
blocks and gives the values ``Generator.random()`` and
``Generator.integers(high)`` would, one by one, without a numpy call per
draw. Outputs are always simple undirected graphs.

``FAMILIES`` is the one table of the families: by name, the generator,
called as ``(n, param, aux_prob, seed)``, the parameter's name and type,
and the config keys of the parameter list and of the auxiliary
probability, with its default. ``GeneratorSpec``, the experiment config
and the CLI read it, so a new family is one row and one config key.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .graph import Graph, build_graph
from .rng import _Draws


@dataclass(frozen=True)
class GeneratorSpec:
    """One generator invocation.

    ``param`` is the family parameter: edges per new node for SF, ring
    neighbors for SW, edge probability for ER. ``aux_prob`` is the triangle
    probability for SF and the shortcut probability for SW, unused for ER;
    ``None`` stands for the family's default.
    """
    family: str
    n: int
    param: float
    aux_prob: float | None = None
    seed: int = 0

    def generate(self) -> Graph:
        """The graph; ValueError on an unknown family or on an integer
        parameter that is not a whole number (``5.0`` is accepted)."""
        row = FAMILIES.get(self.family)
        if row is None:
            raise ValueError(f"unknown family {self.family!r}, "
                             f"expected one of {tuple(FAMILIES)}")
        if row.kind is int and not float(self.param).is_integer():
            raise ValueError(f"{self.family} parameter {row.param} must be "
                             f"an integer, got {self.param!r}")
        aux = row.aux_default if self.aux_prob is None else self.aux_prob
        return row.generator(self.n, row.kind(self.param), aux, self.seed)


def _edge_array(us: list[int], vs: list[int]) -> np.ndarray:
    """The (m, 2) int64 edge array of two endpoint lists."""
    return np.array((us, vs), dtype=np.int64).T


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the C(n, 2) pairs appears independently with prob p.

    Pairs are scanned in lexicographic order with geometric gap sampling, so
    the run time is O(n + m) in expectation rather than O(n^2).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if p == 0.0 or n < 2:
        return build_graph([], n)
    if p == 1.0:
        return build_graph(np.stack(np.triu_indices(n, 1), axis=1), n)
    random = _Draws(seed).random
    log_q = math.log1p(-p)
    us: list[int] = []
    vs: list[int] = []
    u, v = 0, 0  # current pair; (0, 0) is the position before (0, 1)
    while True:
        gap = math.log(1.0 - random()) / log_q
        if gap >= n * n:  # past the last pair, and maybe infinite for tiny p
            return build_graph(_edge_array(us, vs), n)
        v += int(gap) + 1
        while v >= n:
            u += 1
            v = u + 1 + (v - n)
            if u >= n - 1:
                return build_graph(_edge_array(us, vs), n)
        us.append(u)
        vs.append(v)


def gen_nws_small_world(n: int, k: int, p: float, seed: int) -> Graph:
    """Newman–Watts small world: ring lattice plus random shortcuts.

    Start from the ring lattice where every node connects to its k nearest
    ring neighbors. For each lattice edge, with probability p add one
    shortcut between a uniformly random pair that is not identical and not
    already adjacent. Lattice edges are never removed, so the minimum degree
    stays >= k.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k % 2 != 0 or k < 2:
        raise ValueError(f"k must be even and >= 2, got {k}")
    if k >= n:
        raise ValueError(f"k must be < n, got k={k}, n={n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"shortcut probability must be in [0, 1], got {p}")
    draws = _Draws(seed)
    random, below = draws.random, draws.below
    # lattice edges (i, i + j mod n) for j = 1..k/2, node by node
    half = k // 2
    ring = np.arange(n, dtype=np.int64).repeat(half)
    far = (ring + np.tile(np.arange(1, half + 1, dtype=np.int64), n)) % n
    lattice = np.stack([np.minimum(ring, far), np.maximum(ring, far)], axis=1)
    present = set((lattice[:, 0] * n + lattice[:, 1]).tolist())  # lo * n + hi
    us: list[int] = []
    vs: list[int] = []
    for _ in range(len(lattice)):
        if len(present) == n * (n - 1) // 2:  # complete: no pair is left
            break
        if random() >= p:
            continue
        while True:
            a = below(n)
            b = below(n)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            if a * n + b not in present:
                break
        us.append(a)
        vs.append(b)
        present.add(a * n + b)
    return build_graph(np.concatenate([lattice, _edge_array(us, vs)]), n)


def gen_holme_kim(n: int, m: int, p: float, seed: int) -> Graph:
    """Holme–Kim growing scale-free graph with tunable clustering.

    Start with m isolated seed nodes. Each subsequent node attaches m edges:
    the first by preferential attachment (target drawn from the repeated
    endpoint list, i.e. proportional to current degree), and each further
    edge with probability p by triad formation (a random eligible neighbor
    of the previous target), falling back to preferential attachment when no
    neighbor is eligible. Every new node contributes exactly m distinct
    edges, so the total is (n - m) * m.
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"triangle probability must be in [0, 1], got {p}")
    # the growth loop's lists are gone before build_graph sorts
    return build_graph(_holme_kim_edges(n, m, p, seed), n)


def _holme_kim_edges(n: int, m: int, p: float, seed: int) -> np.ndarray:
    """The (m', 2) int64 edges ``(new, t)`` of ``gen_holme_kim``, in id order."""
    draws = _Draws(seed)
    random, below = draws.random, draws.below
    adj: list[list[int]] = [[] for _ in range(n)]
    # new, t for each edge (t, new) in id order; drives the PA draws
    endpoints: list[int] = []

    def pa_target(new: int) -> int:
        if endpoints:
            # rejection sampling stays exactly degree-proportional; the cap
            # only guards against adversarial saturation and then falls back
            # to a uniform eligible draw
            for _ in range(1000):
                t = endpoints[below(len(endpoints))]
                if t != new and t not in adj[new]:  # at most m entries
                    return t
        pool = [t for t in range(new) if t not in adj[new]]
        return pool[below(len(pool))]

    def triad_target(new: int, prev: int) -> int | None:
        # the r-th eligible entry of prev's row, drawn as over the list of
        # eligible entries but without building it: new is the row's last
        # entry, and r steps over the positions of new's other neighbours
        row = adj[prev]
        skip = sorted(row.index(w) for w in adj[new] if w in row)
        if len(row) - 1 == len(skip):
            return None
        r = below(len(row) - 1 - len(skip))
        for s in skip:
            if s > r:
                break
            r += 1
        return row[r]

    def connect(new: int, t: int) -> None:
        adj[new].append(t)
        adj[t].append(new)
        endpoints.append(new)
        endpoints.append(t)

    for new in range(m, n):
        prev = pa_target(new)
        connect(new, prev)
        for _ in range(m - 1):
            target = triad_target(new, prev) if random() < p else None
            if target is None:
                target = pa_target(new)
            connect(new, target)
            prev = target
    return np.array(endpoints, dtype=np.int64).reshape(-1, 2)


class Family(NamedTuple):
    """One row of ``FAMILIES``; ``aux_key`` is None where the generator
    takes no auxiliary probability."""
    generator: Callable[[int, float, float, int], Graph]
    param: str                # the parameter's name in messages
    kind: type                # the parameter's type, int or float
    key: str                  # config key of the parameter list
    aux_key: str | None       # config key of the auxiliary probability
    aux_default: float


FAMILIES = {
    "SF": Family(gen_holme_kim, "m", int, "sf_m", "sf_triangle_p", 0.3),
    "SW": Family(gen_nws_small_world, "k", int, "sw_k", "sw_shortcut_p", 0.6),
    "ER": Family(lambda n, p, _, seed: gen_erdos_renyi(n, p, seed),
                 "p", float, "er_p", None, 0.0),
}
