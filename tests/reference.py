"""Scalar references for the library's array kernels, used only by the tests.

``werw_kpath_reference`` is the per-slot WERW-Kpath sampler written one
walk and one step at a time: the same allotment, the same uniforms consumed
in the same order, the same arithmetic, so ``werw_kpath`` must equal it
draw for draw. It lists each node's admissible edges explicitly instead of
skipping excluded slots. ``oracle_kpath`` is the exact score by trail
enumeration, the ground truth on tiny graphs.

``initial_state`` and ``epoch_step`` are the sequential Game of Thieves:
thieves act one at a time in ascending id order with immediate stock
updates, and ``run_got`` must equal iterating them, draw for draw.
``oracle_betweenness`` recomputes betweenness by all-pairs BFS path
counting, independently of the Brandes accumulation it checks.
``level_mask_brandes`` is Brandes as it was before it walked the
shortest-path DAG: every level's arcs, masked by distance in both passes.
``betweenness_centrality`` must equal it bit for bit, since both add each
node's terms in the same order. ``oracle_closeness`` is closeness by one
plain deque BFS per source, which the bit-parallel
``closeness_centrality`` must equal bit for bit, errors included.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from centbench import DisconnectedGraphError, GotConfig, Graph, make_rng


def werw_kpath_reference(g: Graph, k: int, rho: int, seed: int) -> np.ndarray:
    """Per-slot weighted trail sampler, one scalar walk at a time.

    Slot i (CSR order) gets rho // 2m walks, plus one if i < rho % 2m; a
    walk's first edge is its slot. Every walk reads its own row of one
    ``rng.random((rho, k - 2))`` block. A walk's masses over its source's
    total are summed as exact integers in two limbs (multiples of 1 / scale,
    and of 1 / (scale * fine) for the remainder), per class of slot
    (rho // 2m walks or one more): trail masses per edge, completion masses
    per end node, and the trail edges at the end node taken back out of
    their node's completions.
    """
    if g.m == 0 or k < 1 or rho < 2 * g.m:
        raise ValueError(f"need m >= 1, k >= 1 and rho >= 2m, got "
                         f"m={g.m}, k={k}, rho={rho}")
    rng = make_rng(seed)
    rows = [list(zip(g.neighbors(u).tolist(),
                     g.adj_eids[g.indptr[u]:g.indptr[u + 1]].tolist()))
            for u in range(g.n)]
    ends = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    per_slot, extra = divmod(rho, 2 * g.m)
    length = max(k - 1, 1)
    draws = rng.random((rho, max(k - 2, 0))).tolist()
    scale = 2.0 ** (52 - (4 * (per_slot + 1) * g.n).bit_length())
    fine = 2.0 ** (52 - (2 * rho).bit_length())
    # exact integer sums, indexed [limb][class][id]
    trail_acc = [[[0] * g.m for _ in range(2)] for _ in range(2)]
    node_acc = [[[0] * g.n for _ in range(2)] for _ in range(2)]
    back_acc = [[[0] * g.m for _ in range(2)] for _ in range(2)]

    def add(acc, cls, i, share):
        units = share * scale
        whole = round(units)
        acc[0][cls][i] += whole
        acc[1][cls][i] += round((units - whole) * fine)
    walk = 0
    for source in range(g.n):
        walks = []
        source_mass = 0.0
        for i, (first_node, first_edge) in enumerate(rows[source]):
            cls = 1 if int(g.indptr[source]) + i < extra else 0
            reps = per_slot + cls
            slot_mass = 0.0
            for _ in range(reps):
                trail, weights, node, w = [first_edge], [1.0], first_node, 1.0
                for u in draws[walk][:length - 1]:
                    admissible = [(v, e) for v, e in rows[node]
                                  if e not in trail]
                    if not admissible:
                        break
                    r = min(int(u * len(admissible)), len(admissible) - 1)
                    node, e = admissible[r]
                    w *= len(admissible)
                    trail.append(e)
                    weights.append(w)
                walk += 1
                at_end = None
                tail = 0.0
                if k >= 2 and len(trail) == length:
                    at_end = [e for e in trail if node in ends[e]]
                    tail = w * (len(rows[node]) - len(at_end))
                suffix = [0.0] * len(trail)
                mass = tail
                for t in range(len(trail) - 1, -1, -1):
                    mass += weights[t]
                    suffix[t] = mass
                slot_mass += suffix[0]
                walks.append((cls, trail, suffix, node, w, at_end))
            source_mass += slot_mass / reps
        for cls, trail, suffix, node, w, at_end in walks:
            for e, mass in zip(trail, suffix):
                add(trail_acc, cls, e, mass / source_mass)
            if at_end is not None:
                add(node_acc, cls, node, w / source_mass)
                for e in at_end:
                    add(back_acc, cls, e, w / source_mass)
    node_acc = np.asarray(node_acc, dtype=np.float64)
    units = (np.asarray(trail_acc, dtype=np.float64)
             + (node_acc[..., g.edge_u] + node_acc[..., g.edge_v])
             - np.asarray(back_acc, dtype=np.float64))
    units = units[:, 0] / per_slot + units[:, 1] / (per_slot + 1)
    return (units[0] + units[1] / fine) / scale


def oracle_kpath(g: Graph, k: int, max_n: int = 10, max_k: int = 6) -> np.ndarray:
    """Exact k-path edge centrality by exhaustive trail enumeration.

    For every source, enumerates all edge-self-avoiding walks of length
    1..k, counts how many traverse each edge, and sums the per-source
    fractions. Sources with no walks contribute 0. The per-source fractions
    are accumulated as exact rationals so that symmetric edges come out
    exactly tied. Guarded to tiny instances.
    """
    if g.n > max_n or k > max_k:
        raise ValueError(
            f"oracle limited to n <= {max_n}, k <= {max_k}; got n={g.n}, k={k}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    m = g.m
    incident = [list(zip(g.neighbors(u).tolist(),
                         g.adj_eids[g.indptr[u]:g.indptr[u + 1]].tolist()))
                for u in range(g.n)]
    totals = [Fraction(0)] * m
    for source in range(g.n):
        walk_count = 0
        edge_hits = [0] * m
        trail: list[int] = []
        used: set[int] = set()

        def extend(node: int, depth: int) -> None:
            nonlocal walk_count
            if depth == k:
                return
            for nxt, eid in incident[node]:
                if eid in used:
                    continue
                trail.append(eid)
                used.add(eid)
                walk_count += 1
                for traversed in trail:
                    edge_hits[traversed] += 1
                extend(nxt, depth + 1)
                used.discard(eid)
                trail.pop()

        extend(source, 0)
        if walk_count:
            for eid, hits in enumerate(edge_hits):
                if hits:
                    totals[eid] += Fraction(hits, walk_count)
    return np.asarray([float(t) for t in totals], dtype=np.float64)


@dataclass
class ThiefState:
    """One thief: home node, current position, cargo flag, outbound trail.

    ``path_stack`` always starts at the home node and ends at the current
    position. While carrying, the thief retraces the stack toward home.
    """
    home: int
    position: int
    carrying: bool = False
    path_stack: list[int] = field(default_factory=list)


@dataclass
class GotState:
    """Full mutable simulation state between epochs."""
    vdiamonds_at_node: np.ndarray        # int64 per node
    thieves: list[ThiefState]
    epoch: int
    edge_loaded_crossings: np.ndarray    # int64 per edge, current epoch only


def initial_state(g: Graph, cfg: GotConfig) -> GotState:
    tpn, vd, _ = cfg.resolve(g.n)
    thieves = [ThiefState(home=node, position=node, path_stack=[node])
               for node in range(g.n) for _ in range(tpn)]
    return GotState(
        vdiamonds_at_node=np.full(g.n, vd, dtype=np.int64),
        thieves=thieves,
        epoch=0,
        edge_loaded_crossings=np.zeros(g.m, dtype=np.int64),
    )


def epoch_step(g: Graph, state: GotState, rng: np.random.Generator) -> GotState:
    """Advance the simulation one epoch, in place (reference semantics).

    Thieves act in ascending id order with immediate vdiamond updates. One
    uniform draw is consumed per thief that starts the epoch empty-handed,
    batched in a single generator call so that any implementation making the
    same batched draws sees the identical stream.
    """
    counts = state.vdiamonds_at_node
    state.edge_loaded_crossings[:] = 0
    draws = rng.random(sum(1 for t in state.thieves if not t.carrying))
    di = 0
    for thief in state.thieves:
        if thief.carrying:
            stack = thief.path_stack
            frm = stack.pop()
            to = stack[-1]
            state.edge_loaded_crossings[g.edge_id(frm, to)] += 1
            thief.position = to
            if to == thief.home:
                counts[to] += 1
                thief.carrying = False
        else:
            pos = thief.position
            u = draws[di]
            di += 1
            deg = int(g.degrees[pos])
            if deg == 0:
                raise ValueError(f"thief stranded on isolated node {pos}")
            slot = int(g.indptr[pos]) + int(u * deg)
            to = int(g.adj[slot])
            thief.position = to
            if to == thief.home:
                # back at base empty-handed: the outbound trail restarts
                thief.path_stack = [to]
            else:
                thief.path_stack.append(to)
                if counts[to] >= 1:
                    counts[to] -= 1
                    thief.carrying = True
    state.epoch += 1
    return state


def oracle_betweenness(g: Graph, max_n: int = 200) -> np.ndarray:
    """Betweenness by explicit all-pairs BFS path counting (test oracle).

    Contract matches ``betweenness_centrality`` exactly but the computation
    is independent: plain deque BFS per source, then the pairwise identity
    that the shortest h-k paths through i number sigma(h,i) * sigma(i,k)
    whenever d(h,i) + d(i,k) = d(h,k). Guarded to small graphs so it is not
    used by accident where Brandes is intended.
    """
    n = g.n
    if n > max_n:
        raise ValueError(f"oracle limited to n <= {max_n}, got n={n}")
    if n < 3 or g.m == 0:
        return np.zeros(n, dtype=np.float64)
    rows = [g.neighbors(u).tolist() for u in range(n)]
    dist_m = np.full((n, n), np.inf, dtype=np.float64)
    sigma_m = np.zeros((n, n), dtype=np.float64)
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        queue = deque([s])
        while queue:
            v = queue.popleft()
            dv = dist[v]
            sv = sigma[v]
            for w in rows[v]:
                if dist[w] == -1:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sv
        for v in range(n):
            if dist[v] >= 0:
                dist_m[s, v] = dist[v]
                sigma_m[s, v] = sigma[v]
    bc = np.zeros(n, dtype=np.float64)
    finite = np.isfinite(dist_m)
    for i in range(n):
        through = dist_m[:, i:i + 1] + dist_m[i:i + 1, :]
        on_path = finite & (through == dist_m)
        counts = sigma_m[:, i:i + 1] * sigma_m[i:i + 1, :]
        frac = np.zeros((n, n), dtype=np.float64)
        np.divide(counts, sigma_m, out=frac, where=on_path)
        frac[i, :] = 0.0
        frac[:, i] = 0.0
        bc[i] = np.triu(frac, 1).sum()
    return bc


def level_mask_brandes(g: Graph) -> np.ndarray:
    """Brandes betweenness that re-masks each level's arcs by distance.

    The forward pass keeps every arc of every level and counts paths along
    those with ``dist[nbr] == lev + 1``; the backward pass masks the same
    arcs again with ``dist[nbr] == lev - 1``. Each node adds its terms in
    ascending neighbour order with the same expression as
    ``betweenness_centrality``, which must equal it bit for bit. Its own
    frontier loop keeps it independent of ``bfs_levels``.
    """
    n = g.n
    bc = np.zeros(n, dtype=np.float64)
    if n < 3 or g.m == 0:
        return bc
    for s in range(n):
        if g.degrees[s] == 0:
            continue
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        sigma = np.zeros(n, dtype=np.float64)
        sigma[s] = 1.0
        frontier = np.asarray([s], dtype=np.int64)
        arcs = []
        lev = 0
        while frontier.size:
            cnts = g.degrees[frontier]
            ends = np.cumsum(cnts)
            slots = (np.repeat(g.indptr[frontier] - (ends - cnts), cnts)
                     + np.arange(ends[-1]))
            nbrs, srcs = g.adj[slots], np.repeat(frontier, cnts)
            fresh = np.unique(nbrs[dist[nbrs] == -1])
            dist[fresh] = lev + 1
            advance = dist[nbrs] == lev + 1
            sigma += np.bincount(nbrs[advance], weights=sigma[srcs[advance]],
                                 minlength=n)
            arcs.append((nbrs, srcs))
            frontier = fresh
            lev += 1
        delta = np.zeros(n, dtype=np.float64)
        for lev in range(len(arcs) - 1, 0, -1):
            nbrs, srcs = arcs[lev]
            pred = dist[nbrs] == lev - 1
            contrib = (sigma[nbrs[pred]] / sigma[srcs[pred]]
                       * (1.0 + delta[srcs[pred]]))
            delta += np.bincount(nbrs[pred], weights=contrib, minlength=n)
        delta[s] = 0.0
        bc += delta
    return bc / 2.0


def oracle_closeness(g: Graph) -> np.ndarray:
    """Closeness ``n / sum_j d_ij`` by one plain deque BFS per source.

    Same contract as ``closeness_centrality``: ValueError if n < 2, and
    DisconnectedGraphError naming the smallest node the first source
    (node 0) cannot reach.
    """
    n = g.n
    if n < 2:
        raise ValueError(f"closeness needs n >= 2, got n={g.n}")
    rows = [g.neighbors(u).tolist() for u in range(n)]
    out = np.empty(n, dtype=np.float64)
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in rows[v]:
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if -1 in dist:
            raise DisconnectedGraphError(
                f"node {dist.index(-1)} is unreachable from node {s}")
        out[s] = n / sum(dist)
    return out
