"""Game of Thieves: epoch-based multi-agent centrality simulation.

Each node hosts a fixed number of thieves and starts with a stock of
virtual diamonds (vdiamonds). In every epoch each thief makes one hop.
An empty-handed thief walks to a uniformly random neighbor and, if that
node is not its home and holds at least one vdiamond, picks one up. A
loaded thief retraces its outbound trail one hop per epoch and deposits
the vdiamond when it reaches home. Central nodes are drained fastest, so
a LOW time-averaged stock (phi) means HIGH centrality; the edge score
(psi) is the time-averaged count of loaded thieves crossing each edge.

Epoch semantics are sequential: thieves act in ascending thief-id order
with immediate stock updates, so a later thief sees an earlier thief's
pickup within the same epoch. ``run_got`` is an array kernel equal,
draw for draw, to that one-thief-at-a-time simulation; the sequential
version lives with the tests (``tests/reference.py``) as their reference.

The kernel moves every thief at once, then resolves the epoch's pickups
node by node, since a node's outcome depends only on its own start stock
and the id order of the deposits and attempts it sees. At a node whose
stock covers its attempts, all of them succeed in any order, and at an
empty node that takes no deposit all of them fail, so counts settle both.
Only the other short nodes, whose stock is below their attempts, need the
order: one vectorized pass sorts their events by (node, thief id) and
treats each node's stock as a walk clamped at zero (-1 per attempt, +1
per deposit), whose closed form is the prefix sum minus the negative part
of its running minimum; an attempt succeeds iff the stock just before it
is positive. At the default stock, even an epoch with contention has few
such nodes, and at one vdiamond per node most short nodes are empty, so
that sort stays small. A trace record also counts the refused attempts,
those that found the node empty.

A thief's state is its trail, the edge ids of its hops out from home, and
a walker's position. A walker appends the edge it takes; a loaded thief
pops the last one, crossing that edge back, and needs no position until it
is home again, so no node path is stored. All trails share one flat array
stored depth-major, thief t's hop i at ``i * nt + t`` for nt thieves, so
the shallow rows that nearly every hop reads and writes lie together. It
holds the edge ids in the narrowest unsigned type that fits them all
(uint16 up to 65,536 edges) and starts one row deep; when a walker
outgrows the array it doubles, the old rows copied into its front, so its
size follows the deepest trail.

Score accumulation: with ``mean_convention="per-epoch"`` the sums over
epochs 0..T (T+1 addends, where epoch 0 is the initial state) are divided
by the epoch count T; ``"arithmetic"`` divides by T+1 instead. The epoch
count defaults to ceil(ln(n)^3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Graph, check_fields, is_connected, is_int, is_int_or_null
from .rng import make_rng

MEAN_CONVENTIONS = ("per-epoch", "arithmetic")


def default_epochs(n: int) -> int:
    """Default epoch count ceil(ln(n)^3)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return math.ceil(math.log(n) ** 3)


@dataclass(frozen=True)
class GotConfig:
    """Simulation parameters.

    ``vdiamonds_per_node=None`` resolves to the node count and ``epochs=None``
    to ``default_epochs(n)`` when the simulation starts, as is customary for
    this game. A bad field raises ValueError led by its name.
    """
    thieves_per_node: int = 1
    vdiamonds_per_node: int | None = None
    epochs: int | None = None
    mean_convention: str = "per-epoch"
    seed: int = 0

    def __post_init__(self):
        counts = ("thieves_per_node", "vdiamonds_per_node", "epochs")
        check_fields(self, (
            (("thieves_per_node", "seed"), is_int, "an integer"),
            (("vdiamonds_per_node", "epochs"), is_int_or_null,
             "an integer or null"),
            (("mean_convention",), MEAN_CONVENTIONS.__contains__,
             f"one of {MEAN_CONVENTIONS}"),
            (counts, lambda v: v is None or v >= 1, "at least 1")))

    def resolve(self, n: int) -> tuple[int, int, int]:
        """Concrete (thieves_per_node, vdiamonds_per_node, epochs) for n nodes."""
        vd = self.vdiamonds_per_node if self.vdiamonds_per_node is not None else n
        epochs = self.epochs if self.epochs is not None else default_epochs(n)
        return self.thieves_per_node, vd, epochs


class TraceRecord(NamedTuple):
    epoch: int
    vdiamonds_held: int
    thieves_carrying: int
    pickups_refused: int    # attempts this epoch that found the node empty


@dataclass(frozen=True)
class GotResult:
    phi: np.ndarray                      # node score, length n
    psi: np.ndarray                      # edge score, length m
    trace: list[TraceRecord] | None


def run_got(g: Graph, cfg: GotConfig, collect_trace: bool = False) -> GotResult:
    """Run the full simulation and return time-averaged node and edge scores.

    Requires a connected graph with at least two nodes, and ValueError if
    (epochs + 1) * n * vdiamonds_per_node exceeds int64. Deterministic for a
    fixed (graph, config, seed); equal to iterating the sequential reference
    ``epoch_step`` of ``tests/reference.py`` with the same generator.

    Thief state is the ``pos``, ``carrying`` and ``top`` vectors and one
    flat ``trail`` array of rows of ``nt`` entries, one row per hop: thief
    t's i-th outbound edge id is at ``i * nt + t``, and ``top[t]`` is the
    flat index of its next free slot, ``depth * nt + t``. A loaded thief's
    ``pos`` is stale until it deposits and is set to its home. The trail's
    type is ``np.min_scalar_type(m - 1)``, the narrowest unsigned type
    that holds every edge id, and it starts one row deep. When a walker
    needs a row past the end, the array doubles and the old rows are
    copied into its front.
    """
    n, m = g.n, g.m
    if n < 2:
        raise ValueError(f"simulation needs n >= 2, got n={n}")
    if not is_connected(g):
        raise ValueError("simulation requires a connected graph")
    tpn, vd, epochs = cfg.resolve(n)
    # a node's stock sum over the epoch-0 snapshot and every epoch can reach
    # all n * vd vdiamonds each time, and phi_sum must hold it exactly
    if (epochs + 1) * n * vd > np.iinfo(np.int64).max:
        raise ValueError(f"vdiamonds_per_node={vd} is too large: {epochs + 1} "
                         f"stock snapshots of {n} nodes overflow int64")
    rng = make_rng(cfg.seed)

    nt = n * tpn
    home = np.repeat(np.arange(n, dtype=np.int64), tpn)
    counts = np.full(n, vd, dtype=np.int64)
    carrying = np.zeros(nt, dtype=bool)
    pos = home.copy()
    # the narrowest type that holds every edge id, one row to start with
    trail = np.zeros(nt, dtype=np.min_scalar_type(m - 1))
    top = np.arange(nt, dtype=np.int64)  # every trail is empty: depth 0

    phi_sum = np.full(n, vd, dtype=np.int64)  # epoch-0 snapshot
    psi_sum = np.zeros(m, dtype=np.int64)
    trace = [TraceRecord(0, n * vd, 0, 0)] if collect_trace else None

    indptr, adj, adj_eids, deg = g.indptr, g.adj, g.adj_eids, g.degrees

    for epoch in range(1, epochs + 1):
        walk_ids = np.flatnonzero(~carrying)
        carr_ids = np.flatnonzero(carrying)
        draws = rng.random(walk_ids.size)

        # loaded thieves retrace one hop; those that arrive home deposit
        t = top[carr_ids] - nt
        np.add.at(psi_sum, trail[t], 1)
        top[carr_ids] = t
        dep_ids = carr_ids[t < nt]
        dep_nodes = home[dep_ids]
        pos[dep_ids] = dep_nodes
        carrying[dep_ids] = False

        # empty-handed thieves hop to a uniform random neighbor
        at = pos[walk_ids]
        slots = indptr[at] + (draws * deg[at]).astype(np.int64)
        to = adj[slots]
        t = top[walk_ids]
        if t.max(initial=0) >= trail.size:
            grown = np.zeros(2 * trail.size, dtype=trail.dtype)
            grown[:trail.size] = trail
            trail = grown
        trail[t] = adj_eids[slots]
        pos[walk_ids] = to
        away = to != home[walk_ids]
        top[walk_ids] = np.where(away, t + nt, walk_ids)  # trail restarts at home
        att_ids = walk_ids[away]
        att_nodes = to[away]

        _resolve_pickups(counts, carrying, att_ids, att_nodes, dep_ids,
                         dep_nodes, n)

        phi_sum += counts
        if collect_trace:
            refused = att_ids.size - np.count_nonzero(carrying[att_ids])
            trace.append(TraceRecord(epoch, int(counts.sum()),
                                     int(carrying.sum()), int(refused)))

    denom = float(epochs if cfg.mean_convention == "per-epoch" else epochs + 1)
    return GotResult(phi=phi_sum / denom, psi=psi_sum / denom, trace=trace)


def _resolve_pickups(counts, carrying, att_ids, att_nodes, dep_ids, dep_nodes, n):
    """Apply one epoch's deposits and pickup attempts in thief-id order.

    An attempt succeeds when the node still holds a vdiamond at the moment
    the attempting thief acts. Per node this depends only on the start-of-
    epoch stock and the id-interleaving of that node's deposits and
    attempts, so nodes resolve independently. Where the start stock covers
    a node's attempts, every attempt succeeds whatever the order, and the
    node's stock changes by its deposits minus its attempts; that is the
    whole epoch when no node is contended. A contended node that is empty
    and takes no deposit refuses every attempt and stays empty. The other
    contended nodes, the ordered ones, are resolved in one exact pass over
    their events: sorted by (node, thief id), a node's stock is a walk
    clamped at zero, Y_j = max(0, Y_{j-1} + step_j), with step -1 for an
    attempt and +1 for a deposit. Its closed form is the unclamped walk S_j
    minus min(0, min_{i<=j} S_i), and an attempt succeeds iff the stock just
    before it, Y_{j-1}, is positive.

    The attempting and depositing thieves must enter with ``carrying``
    false: each one's flag is written, not only the granted ones.
    """
    att_per_node = np.bincount(att_nodes, minlength=n)
    dep_per_node = np.bincount(dep_nodes, minlength=n)
    short = counts < att_per_node
    if not short.any():
        counts += dep_per_node - att_per_node
        carrying[att_ids] = True
        return

    # where stock covers the attempts, all of them succeed in any order;
    # where it is short, empty and takes no deposit, all of them fail
    ordered = short & ((counts > 0) | (dep_per_node > 0))
    carrying[att_ids] = ~short[att_nodes]
    counts += np.where(short, 0, dep_per_node - att_per_node)
    if not ordered.any():
        return

    # ordered nodes: one clamped walk per node over its events
    nodes = np.concatenate((att_nodes, dep_nodes))
    keep = np.flatnonzero(ordered[nodes])
    nodes = nodes[keep]
    tids = np.concatenate((att_ids, dep_ids))[keep]
    step = np.where(keep < att_ids.size, -1, 1)
    # a thief makes at most one event per epoch, so the keys are distinct
    order = np.argsort(nodes * carrying.size + tids)
    nodes, tids, step = nodes[order], tids[order], step[order]
    first = np.empty(nodes.size, dtype=bool)
    first[0] = True
    first[1:] = nodes[1:] != nodes[:-1]
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    walk = np.cumsum(step)
    walk -= (walk[starts] - step[starts])[group]  # per-node prefix sums
    # segmented running minimum: shift each node's walk below every earlier
    # node's; |walk| <= events <= nt, so with c ordered nodes the offsets
    # stay below c * (2 * nt + 1) <= n * (2 * nt + 1)
    span = walk.max() - walk.min() + 1
    low = np.minimum.accumulate(walk - group * span) + group * span
    start_stock = counts[nodes]
    stock = start_stock + walk - np.minimum(0, start_stock + low)
    before = np.empty_like(stock)
    before[1:] = stock[:-1]
    before[starts] = start_stock[starts]
    carrying[tids] = (step < 0) & (before > 0)
    last = np.append(starts[1:] - 1, nodes.size - 1)
    counts[nodes[last]] = stock[last]
