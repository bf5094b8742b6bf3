"""Stochastic k-path edge centrality via weighted random trail sampling.

The exact k-path score of an edge sums, over all source nodes, the fraction
of that source's edge-self-avoiding walks (trails) of length at most k that
traverse the edge. Enumerating trails is exponential, so ``werw_kpath``
estimates the score by sampling walks that extend a trail along
not-yet-traversed incident edges.

A uniform-step walk does not sample trails uniformly (it under-visits
high-branching regions), so every prefix of the walk carries the classic
sequential importance weight, the running product of admissible-edge
counts. With that weighting, a prefix of length j is an unbiased unit
sample of the length-j trail count, so per source the weighted hit mass on
an edge over the total weighted mass estimates the fraction of the source's
trails using that edge. Summing the per-source ratios over sources gives
the exact score in the many-walk limit.

Allotment. Each of the 2m adjacency slots (one slot per source and
incident edge) gets ``walks_per_slot`` walks, and a walk's first step is
its slot, so the first level is stratified by construction: a source's
total mass is the sum over its slots of the slot's mean walk mass, and each
walk carries the coefficient 1 / (walks_per_slot * source total). The
final level is never sampled: a walk stops one step short of k, and every
admissible completion is added analytically. Together these make the
estimate exact for k = 1 and k = 2 at any ``walks_per_slot``.

Steps. At the current node, the admissible count adm is the degree minus
the trail edges at that node. The step takes the r-th admissible slot in
neighbour order, r = floor(u * adm), clamped to adm - 1 against rounding,
from a uniform double u. Since u takes 2^53 equally spaced values, each r
is hit with probability within 2^-53 of 1/adm. The r-th admissible slot is
found from the node's first slot by skipping the trail edges' slots there,
in ascending order. A trail edge other than the last one can touch the
current node only if the walk has been there before, so one compare of the
node with the walk's earlier path finds the walks that came back. Only
those list and sort the slots of their trail edges; every other walk has
adm = degree - 1 and skips the one slot it came in by. The same test finds
the trail edges at a walk's end node. Each block of W walks draws its
uniforms as one ``rng.random((W, k - 2))`` in walk order, and a walk that
dies (adm = 0) still consumes its row, so any chunking of the walks draws
the same numbers as one draw for all of them. The block's walk state is
stored step-major, one row per step, so a step reads and writes whole rows.

Budget. Each source's ratio of two sampled masses is a ratio estimator,
biased by O(1/walks) (Cochran, *Sampling Techniques*, ch. 6). Rather than
correct it, the default of four walks per slot (8m walks) pushes it below
the run-to-run noise: on three random n = 8 graphs at k = 3 and 5, the mean
over 1000 seeds stays within 5% of the enumeration oracle on every edge
(2.5% worst measured, against 12-39% for an equal split of max(m, n) walks
over the sources).

Blocking. Walks run in blocks of whole sources of at most ``BLOCK_WALKS``
walks, all steps of a block at once, so memory stays bounded whatever the
graph size. A source with more walks than that is a block of its own and
steps in chunks of ``BLOCK_WALKS`` walks; every chunk's walks are held
until the source's total mass is known. A block holds an edge id and a
mass, 16 B, per walk and step: max(BLOCK_WALKS, walks of its largest
source) * (k - 1) * 16 B of walk state.

Sums. Each walk's masses over its source's total go to two sums: masses
per edge, and completion masses per end node, spread over its edges less
the trail edges there, whose shares enter the edge sum negated. Every
share is split into an integer multiple of 1 / scale and a remainder
rounded to a multiple of 1 / (scale * fine), about 2^-70 at n = 1000, and
both parts are summed as exact integers (rounding is symmetric, so a
negated share is exact too). The sums therefore do not depend on the walk
order. The factor 1 / walks_per_slot that every walk's coefficient shares
is left out of the shares and applied to the sums once, at the end, and the
result is rounded once, so structurally symmetric edges come out exactly
tied wherever the walks are forced (k <= 2, paths, cycles).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, check_fields, is_int
from .rng import make_rng

BLOCK_WALKS = 2048  # walks stepped at once; bounds the block arrays
_NO_SLOT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class KpathConfig:
    """Walk parameters; a field of the wrong type or out of range raises
    ValueError led by its name."""
    k: int = 10
    walks_per_slot: int = 4  # walks on each of the 2m adjacency slots
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ((("k", "walks_per_slot", "seed"), is_int,
                             "an integer"),
                            (("k", "walks_per_slot"), lambda v: v >= 1,
                             "at least 1")))

    def resolve(self, m: int) -> tuple[int, int]:
        """(k, total walks) for a graph with m edges."""
        return self.k, 2 * m * self.walks_per_slot


def werw_kpath(g: Graph, cfg: KpathConfig) -> np.ndarray:
    """Sampled k-path edge centrality, one non-negative score per edge.

    Deterministic for a fixed (graph, config, seed). Sources with no
    incident edge contribute nothing, mirroring the exact definition.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    k, budget = cfg.resolve(g.m)
    per_slot = cfg.walks_per_slot
    rng = make_rng(cfg.seed)
    owner = np.repeat(np.arange(g.n), g.degrees)
    # twin[s]: the other slot of the edge in slot s
    by_edge = np.argsort(g.adj_eids, kind="stable")
    twin = np.empty(2 * g.m, dtype=np.int64)
    twin[by_edge[0::2]], twin[by_edge[1::2]] = by_edge[1::2], by_edge[0::2]
    source_walks = np.cumsum(per_slot * g.degrees)
    slot_mass = np.zeros(2 * g.m)
    # A walk's masses over its source's total are split into multiples of
    # 1 / scale and a remainder in multiples of 1 / (scale * fine). Both
    # parts are summed as exact integers (under 2^53), in any order. Index
    # [limb, id]. scale leaves room for per_slot + 1 walks a slot: dropping
    # the + 1 would move the grid (15 bits against 14 at n = 1000), and with
    # it the low bits of every score and the pinned digests.
    scale = 2.0 ** (52 - (4 * (per_slot + 1) * g.n).bit_length())
    fine = 2.0 ** (52 - (2 * budget).bit_length())
    trail_acc = np.zeros((2, g.m))
    node_acc = np.zeros((2, g.n))

    def add(acc, index, share):
        units = share * scale
        whole = np.rint(units)
        np.add.at(acc[0], index, whole)
        np.add.at(acc[1], index, np.rint((units - whole) * fine))

    lo = 0
    while lo < g.n:
        done = source_walks[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(source_walks, done + BLOCK_WALKS,
                                     side="right")), lo + 1)
        first, last = g.indptr[lo], g.indptr[hi]
        walk_slot = np.repeat(np.arange(first, last), per_slot)
        held = []
        for c in range(0, walk_slot.size, BLOCK_WALKS):
            slot = walk_slot[c:c + BLOCK_WALKS]
            walks = _walks(g, twin, k, slot, rng)
            np.add.at(slot_mass, slot, walks.suffix[0])
            held.append((slot, walks))
        source_mass = np.bincount(owner[first:last] - lo,
                                  slot_mass[first:last] / per_slot,
                                  minlength=hi - lo)
        for slot, walks in held:
            total = source_mass[owner[slot] - lo]
            on = walks.trail >= 0
            add(trail_acc, walks.trail[on], (walks.suffix / total)[on])
            ended, at = walks.complete, walks.end_walk
            tail = walks.last_weight / total[ended]
            add(node_acc, walks.end, tail)
            add(trail_acc, walks.end_edge, -tail[at])
        lo = hi

    units = trail_acc + (node_acc[:, g.edge_u] + node_acc[:, g.edge_v])
    units /= per_slot
    return (units[0] + units[1] / fine) / scale


@dataclass
class _Walks:
    trail: np.ndarray        # (L, W) edge ids in walk order, -1 past a death
    suffix: np.ndarray       # (L, W) mass of the trail prefixes through each edge
    complete: np.ndarray     # ids of the walks that reached length L, if k >= 2
    end: np.ndarray          # their end nodes
    last_weight: np.ndarray  # their importance weights at length L
    end_walk: np.ndarray     # the trail edges at their end node: the walk's
    end_edge: np.ndarray     # position in complete, and the edge id


def _walks(g: Graph, twin: np.ndarray, k: int, slot: np.ndarray,
           rng) -> _Walks:
    """Step the walks that start on ``slot``, all at once."""
    length = max(k - 1, 1)
    w = slot.size
    draws = rng.random((w, max(k - 2, 0))).T.copy()
    # path[t] is the node before step t; the t-th trail edge sits in slot
    # leave[t] of that node's row and twin[leave[t]] of the next one's
    path = np.empty((length + 1, w), dtype=np.int64)
    leave = np.full((length, w), -1, dtype=np.int64)
    weight = np.zeros((length, w))
    leave[0], weight[0] = slot, 1.0
    # the live walks' current node, entry slot there, and weight
    x, entered, wt = g.adj[slot], twin[slot], np.ones(w)
    path[0], path[1] = g.adj[entered], x
    live = np.arange(w)
    for j in range(1, length + 1):
        rows = live if live.size < w else slice(None)  # a view until a death
        adm = g.degrees[x] - 1
        # an earlier trail edge touches x only if the walk came back to x
        back = np.flatnonzero((path[:j, rows] == x).any(axis=0))
        if back.size:
            ids = live[back]
            # trail edge t joins path[t] and path[t + 1], so it leaves x
            # where path[t] is x and enters x where path[t + 1] is, as the
            # last one always does
            out = path[:j, ids] == x[back]
            at = out.copy()
            at[:-1] |= out[1:]
            at[-1] = True
            touching = at.sum(axis=0)
            adm[back] = g.degrees[x[back]] - touching
        if j == length:  # the completions are added analytically
            break
        r = np.minimum((draws[j - 1, rows] * adm).astype(np.int64), adm - 1)
        pick = g.indptr[x] + r
        pick += entered <= pick
        if back.size:
            # skip the trail edges' slots in x's row, in ascending order
            skip = np.where(out, leave[:j, ids],
                            np.where(at, twin[leave[:j, ids]], _NO_SLOT))
            skip.sort(axis=0)
            hop = g.indptr[x[back]] + r[back]
            for row in skip[:touching.max()]:
                hop += row <= hop
            pick[back] = hop
        ok = adm > 0
        if not ok.all():
            live, pick, adm, wt = live[ok], pick[ok], adm[ok], wt[ok]
            rows = live
        x, entered, wt = g.adj[pick], twin[pick], wt * adm
        leave[j, rows], path[j + 1, rows], weight[j, rows] = pick, x, wt

    trail = np.where(leave >= 0, g.adj_eids[leave], -1)
    tail = np.zeros(w)
    if k == 1:  # no completions
        live = x = wt = end_walk = end_edge = np.zeros(0, dtype=np.int64)
    else:
        tail[live] = wt * adm
        end_walk, end_edge = np.arange(live.size), trail[-1, rows]
        if back.size:
            step, i = np.nonzero(at[:-1])
            end_walk = np.concatenate([end_walk, back[i]])
            end_edge = np.concatenate([end_edge, trail[step, ids[i]]])
    # suffix[t] sums the tail and weight[t:], added from the end
    suffix = weight
    suffix[-1] += tail
    for t in range(length - 2, -1, -1):
        suffix[t] += suffix[t + 1]
    return _Walks(trail, suffix, live, x, wt, end_walk, end_edge)
