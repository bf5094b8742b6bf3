"""Pearson, Spearman, and Kendall correlation coefficients.

Conventions, fixed for testability:

* Pearson uses the population (divide-by-s) covariance and standard
  deviations; the convention cancels in the ratio.
* Spearman is Pearson applied to fractional ranks, ties getting the average
  of the rank positions they span.
* Kendall is tau-a: ``(s_c - s_d) / (s(s-1)/2)`` with tied pairs counting as
  neither concordant nor discordant. No tie renormalization is applied, so
  on heavily tied data (e.g. degree vectors) tau-a is smaller in magnitude
  than tau-b would be.
* A constant input makes every coefficient undefined. That is reported as an
  error (or a ``degenerate`` result), never as 0.

Kendall counts the discordant pairs as the inversions of b once the pairs
are sorted by (a, b) (Knight 1966), by a bottom-up merge on arrays: at each
of the ceil(log2 s) widths, one stable sort (timsort, which merges the two
sorted runs of each block in linear time) merges all blocks at once. That
is O(s log s) with no Python loop per element, for edge-score vectors with
tens of thousands of entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConstantInputError(ValueError):
    """A correlation was requested against a constant vector."""


def _as_sample(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    av = _as_sample(a, "a")
    bv = _as_sample(b, "b")
    if av.size != bv.size:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    if av.size < 2:
        raise ValueError(f"need at least 2 samples, got {av.size}")
    if np.all(av == av[0]):
        raise ConstantInputError("first input is constant; coefficient undefined")
    if np.all(bv == bv[0]):
        raise ConstantInputError("second input is constant; coefficient undefined")
    return av, bv


def pearson(a, b) -> float:
    """Pearson's r: covariance over the product of standard deviations."""
    return _pearson(*_check_pair(a, b))


def _pearson(av: np.ndarray, bv: np.ndarray) -> float:
    """Pearson's r of a checked pair."""
    da = av - av.mean()
    db = bv - bv.mean()
    # the rounded mean can sit a sizeable fraction of the spread off centre
    # when the spread is near the values' ulp; a second pass removes that
    # offset from the (exactly computed) deviations
    da = da - da.mean()
    db = db - db.mean()
    # r is invariant under positive scaling; normalizing the deviations
    # keeps the variances away from under/overflow for extreme inputs
    da = da / np.abs(da).max()
    db = db / np.abs(db).max()
    var_a = float((da * da).mean())
    var_b = float((db * db).mean())
    cov = float((da * db).mean())
    return cov / math.sqrt(var_a * var_b)


def _runs(sorted_vals: np.ndarray) -> np.ndarray:
    """Length of each run of equal values in a sorted vector."""
    boundary = np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1]))
    return np.diff(np.append(np.flatnonzero(boundary), sorted_vals.size))


def _dense_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based dense ranks of ``x`` (equal values share one) and the length
    of each tie run, in rank order."""
    order = np.argsort(x, kind="stable")
    runs = _runs(x[order])
    ranks = np.empty(x.size, dtype=np.int64)
    ranks[order] = np.repeat(np.arange(runs.size), runs)
    return ranks, runs


def _fractional(ranks) -> np.ndarray:
    """1-based fractional ranks from ``_dense_ranks``: a run of t ties ending
    at sorted position e holds the ranks e-t+1..e, whose mean is e - (t-1)/2."""
    dense, runs = ranks
    return (np.cumsum(runs) - (runs - 1) / 2.0)[dense]


def rank_with_ties(a) -> np.ndarray:
    """Ascending fractional ranks (1-based); ties get the average rank.

    Example: (5, 5, 7) ranks as (1.5, 1.5, 3).
    """
    return _fractional(_dense_ranks(_as_sample(a, "a")))


def spearman(a, b) -> float:
    """Spearman's rho: Pearson's r between the rank vectors."""
    return _pearson(*map(_fractional, map(_dense_ranks, _check_pair(a, b))))


def _count_inversions(ranks: np.ndarray) -> int:
    """Strict inversions (i < j with ranks[i] > ranks[j]) of integers in
    [0, s), by bottom-up merging.

    At width w, each block of 2w positions holds two sorted runs; one stable
    sort of ``block * s + rank`` merges every block at once. A right-run
    element passes exactly the left-run elements greater than it, so its
    inversions are how far it moves left, and only right-run elements move
    left.
    """
    s = ranks.size
    pos = np.arange(s)
    count = 0
    width = 1
    while width < s:
        order = np.argsort(pos // (2 * width) * s + ranks, kind="stable")
        count += int(np.maximum(order - pos, 0).sum())
        ranks = ranks[order]
        width *= 2
    return count


def _kendall(ranks_a, ranks_b) -> tuple[float, int, int]:
    """Kendall's tau-a with its exact concordant and discordant pair counts
    s_c and s_d, in O(s log s), from the two vectors' ``_dense_ranks``.

    Sort by (a, b); after that every strict descent in b across an a-strict
    pair is a discordant pair, and b is non-decreasing inside each tied-a
    run, so the inversion count of the permuted b gives s_d exactly.
    """
    (rank_a, runs_a), (rank_b, runs_b) = ranks_a, ranks_b
    s = rank_a.size
    joint = np.sort(rank_a * s + rank_b)
    ties_a, ties_b, ties_joint = (int((r * (r - 1) // 2).sum())
                                  for r in (runs_a, runs_b, _runs(joint)))
    s_d = _count_inversions(joint % s)
    s_c = s * (s - 1) // 2 - ties_a - (ties_b - ties_joint) - s_d
    return (s_c - s_d) / (s * (s - 1) / 2), s_c, s_d


def kendall(a, b) -> float:
    """Kendall's tau-a: (s_c - s_d) / (s(s-1)/2)."""
    return _kendall(*map(_dense_ranks, _check_pair(a, b)))[0]


@dataclass(frozen=True)
class CorrelationResult:
    """All three coefficients for one sample pair.

    ``degenerate`` is set (and every value is None) when either input is
    constant; an undefined coefficient is deliberately distinct from 0.
    """
    r: float | None
    rho: float | None
    tau: float | None
    s_c: int | None
    s_d: int | None
    degenerate: bool


def correlate(a, b) -> CorrelationResult:
    """Compute Pearson, Spearman, and Kendall together for a sample pair,
    checking the pair once and ranking each vector once."""
    try:
        av, bv = _check_pair(a, b)
    except ConstantInputError:
        return CorrelationResult(r=None, rho=None, tau=None,
                                 s_c=None, s_d=None, degenerate=True)
    ranks = [_dense_ranks(av), _dense_ranks(bv)]
    tau, s_c, s_d = _kendall(*ranks)
    return CorrelationResult(r=_pearson(av, bv),
                             rho=_pearson(*map(_fractional, ranks)),
                             tau=tau, s_c=s_c, s_d=s_d, degenerate=False)
