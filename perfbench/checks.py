"""Output checks for the benchmark, independent of centbench's own code.

Each check recomputes a quantity with scipy, or tests an identity or a
relation that the score definitions give, so that none rests on a stored
copy of earlier output. Every function returns a list of failure messages;
an empty list means the output passed.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.stats as st
from scipy.sparse.csgraph import shortest_path

REL = 1e-9
COEFF_ATOL = 1e-10


def adjacency(g) -> sp.csr_matrix:
    ones = np.ones(g.m, dtype=np.float64)
    a = sp.coo_matrix((ones, (g.edge_u, g.edge_v)), shape=(g.n, g.n))
    return (a + a.T).tocsr()


def check_degree(g, dc) -> list[str]:
    ref = np.asarray(adjacency(g).sum(axis=1)).ravel() / (g.n - 1)
    if not np.array_equal(dc, ref):
        return [f"dc differs from row sums of A / (n-1) at "
                f"{int(np.count_nonzero(dc != ref))} nodes"]
    return []


def check_shortest_path_scores(g, bc, cl) -> list[str]:
    """Closeness from scipy BFS distances; betweenness through the identity
    sum_i bc_i = sum_{h<k} (d_hk - 1), which holds on a connected graph
    because each shortest h-k path has d_hk - 1 interior nodes."""
    d = shortest_path(adjacency(g), method="D", unweighted=True)
    if not np.isfinite(d).all():
        return ["graph is not connected"]
    fails = []
    cl_ref = g.n / d.sum(axis=1)
    if not np.allclose(cl, cl_ref, rtol=1e-12, atol=0.0):
        worst = float(np.max(np.abs(cl - cl_ref) / cl_ref))
        fails.append(f"closeness differs from n / sum_j d_ij (worst relative "
                     f"error {worst:.3g})")
    pairs = g.n * (g.n - 1) / 2
    want = d.sum() / 2.0 - pairs
    got = math.fsum(bc.tolist())
    if abs(got - want) > REL * want:
        fails.append(f"betweenness total {got:.6g} != sum_(h<k) (d_hk - 1) = "
                     f"{want:.6g}")
    if (bc < 0).any():
        fails.append("negative betweenness")
    return fails


def check_clustering(g, cc) -> list[str]:
    """Triangles through each node from a sparse A^2 o A."""
    a = adjacency(g)
    tri = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel() / 2.0
    deg = np.asarray(a.sum(axis=1)).ravel()
    ref = np.zeros(g.n)
    ok = deg >= 2
    ref[ok] = 2.0 * tri[ok] / (deg[ok] * (deg[ok] - 1.0))
    if not np.allclose(cc, ref, rtol=1e-12, atol=0.0):
        bad = int(np.count_nonzero(~np.isclose(cc, ref, rtol=1e-12, atol=0.0)))
        return [f"clustering differs from sparse A^2 o A triangles at {bad} nodes"]
    return []


def kendall_tau_a(a, b) -> tuple[float, int]:
    """Kendall tau-a and s_c - s_d, from scipy's tau-b and the tie counts."""
    s = a.size
    n0 = s * (s - 1) // 2

    def tied(x):
        _, counts = np.unique(x, return_counts=True)
        return int((counts * (counts - 1) // 2).sum())

    tau_b = st.kendalltau(a, b, variant="b").statistic
    diff = tau_b * math.sqrt((n0 - tied(a)) * (n0 - tied(b)))
    return diff / n0, int(round(diff))


def check_correlation(name, a, b, res) -> list[str]:
    """One ``correlate`` result against scipy.stats on the same vectors."""
    if res.degenerate:
        return [f"{name}: correlation reported degenerate"]
    fails = []
    tau_a, diff = kendall_tau_a(a, b)
    ref = {"pearson": st.pearsonr(a, b).statistic,
           "spearman": st.spearmanr(a, b).statistic,
           "kendall": tau_a}
    for coeff, value in (("pearson", res.r), ("spearman", res.rho),
                         ("kendall", res.tau)):
        if not abs(value - ref[coeff]) <= COEFF_ATOL:
            fails.append(f"{name}: {coeff} {value!r} != scipy {float(ref[coeff])!r}")
    if res.s_c - res.s_d != diff:
        fails.append(f"{name}: s_c - s_d = {res.s_c - res.s_d} != {diff} "
                     f"from scipy's tau-b")
    return fails


def check_got(g, cfg, res, rerun) -> tuple[list[str], int]:
    """A traced re-run with the same seed against the timed run.

    Returns the failures and the loaded hops: the sum over epochs 0..T-1 of
    the trace's ``thieves_carrying``, since each thief carrying at the start
    of an epoch makes one loaded hop in it.
    """
    _, vd, epochs = cfg.resolve(g.n)
    denom = epochs if cfg.mean_convention == "per-epoch" else epochs + 1
    fails = []
    if not (np.array_equal(res.phi, rerun.phi)
            and np.array_equal(res.psi, rerun.psi)):
        fails.append("phi/psi of the traced re-run differ from the timed run")
    trace = rerun.trace
    if len(trace) != epochs + 1:
        fails.append(f"trace has {len(trace)} records, want {epochs + 1}")
    stock = g.n * vd
    broken = [t.epoch for t in trace
              if t.vdiamonds_held + t.thieves_carrying != stock]
    if broken:
        t = trace[broken[0]]
        fails.append(f"conservation broken in {len(broken)} epochs, first at "
                     f"epoch {t.epoch}: held {t.vdiamonds_held} + carrying "
                     f"{t.thieves_carrying} != n*vd = {stock}")
    loaded = sum(t.thieves_carrying for t in trace[:epochs])
    psi_sum = np.rint(res.psi * denom)
    if not np.allclose(res.psi * denom, psi_sum, rtol=0, atol=1e-6) \
            or int(psi_sum.sum()) != loaded:
        fails.append(f"psi*T sums to {float((res.psi * denom).sum())!r}, "
                     f"loaded hops {loaded}")
    held = stock + sum(t.vdiamonds_held for t in trace[1:])
    if abs(math.fsum((res.phi * denom).tolist()) - held) > 1e-6 * held:
        fails.append(f"phi*T sums to {float((res.phi * denom).sum())!r}, "
                     f"stock over epochs {held}")
    if (res.phi < 0).any() or (res.psi < 0).any():
        fails.append("negative phi or psi")
    return fails, loaded


def endpoint_inverse_degree(g) -> np.ndarray:
    """h = 1/deg(u) + 1/deg(v) per edge."""
    d = g.degrees.astype(np.float64)
    return 1.0 / d[g.edge_u] + 1.0 / d[g.edge_v]


def check_kpath(g, scores, k, sources) -> list[str]:
    """Non-negative scores whose total lies in [sources, k * sources].

    Each source's scores sum to the mean length of its sampled trails, which
    lies in [1, k]. The k-path functional also runs against h = 1/deg(u) +
    1/deg(v) from k = 3 on (enumeration oracle: median Spearman -0.91 at
    k = 3 on random n = 10 graphs), so a Spearman above -0.1 at k >= 3 means
    the scores are not tied to their edges.
    """
    fails = []
    if scores.shape != (g.m,) or not np.isfinite(scores).all():
        return [f"k-path scores have shape {scores.shape} or non-finite values"]
    if (scores < 0).any():
        fails.append("negative k-path score")
    mass = math.fsum(scores.tolist())
    if not sources * (1 - REL) <= mass <= k * sources * (1 + REL):
        fails.append(f"k-path mass {mass:.6g} outside [{sources}, {k * sources}]")
    if k >= 3:
        rho = st.spearmanr(scores, endpoint_inverse_degree(g)).statistic
        if not rho < -0.1:
            fails.append(f"spearman(kpath, 1/deg(u)+1/deg(v)) = {rho:.3f}, "
                         f"want < -0.1")
    return fails


def check_criterion5(family, values) -> list[str]:
    """Criterion-5 signs on one desk cell, from its Spearman and Kendall
    values keyed by pair name (as ``tests/test_acceptance.py`` states them)."""
    rho = {p: v["spearman"] for p, v in values.items()}
    fails = []

    def need(ok, text):
        if not ok:
            fails.append(f"criterion 5: {text}")

    dc = rho["got_node_vs_dc"]
    need(dc <= -0.7 if family == "SF" else dc < 0, f"spearman(phi, dc) = {dc:.3f}")
    need(rho["got_node_vs_bc"] < 0, f"spearman(phi, bc) = {rho['got_node_vs_bc']:.3f}")
    need(rho["got_node_vs_cl"] < 0, f"spearman(phi, cl) = {rho['got_node_vs_cl']:.3f}")
    cc = rho["got_node_vs_cc"]
    need(cc > 0 if family in ("SF", "SW") else abs(cc) <= 0.25,
         f"spearman(phi, cc) = {cc:.3f}")
    edge = rho["got_edge_vs_kpath"]
    need(edge < 0, f"spearman(psi, kpath) = {edge:.3f}")
    if family == "SF":
        for pair in ("got_node_vs_dc", "got_node_vs_bc", "got_node_vs_cl",
                     "got_node_vs_cc"):
            need(abs(rho[pair]) >= abs(values[pair]["kendall"]) - 0.02,
                 f"|rho| < |tau| - 0.02 on {pair}")
    return fails
