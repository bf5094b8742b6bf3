import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from centbench import (ConstantInputError, correlate, kendall, pearson,
                       rank_with_ties, spearman)


def brute_force_counts(a, b):
    """O(s^2) concordant/discordant pair counting, straight from the definition."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    prod = np.sign(a[:, None] - a[None, :]) * np.sign(b[:, None] - b[None, :])
    upper = np.triu(prod, 1)
    return int((upper > 0).sum()), int((upper < 0).sum())


def exact_pearson(x, y):
    """Pearson's r of float samples from exact rational sums, rounded once
    at the end; None when either sample is constant."""
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    n, sx, sy = len(x), sum(x), sum(y)
    sxx = n * sum(v * v for v in x) - sx * sx
    syy = n * sum(v * v for v in y) - sy * sy
    sxy = n * sum(u * v for u, v in zip(x, y)) - sx * sy
    if sxx == 0 or syy == 0:
        return None
    return math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), sxy)


def affine_image_keeps_r(a, scale, shift):
    """True when the float images of x -> +-scale*x + shift, taken exactly,
    have r against 2a - 1 within half the affine test's tolerance of the
    r of ``a``. Only then can a faithful ``pearson`` pass that test."""
    b = [2.0 * x - 1.0 for x in a]
    r = exact_pearson(a, b)
    for sign in (1.0, -1.0):
        r_image = exact_pearson([sign * scale * x + shift for x in a], b)
        if r_image is None or abs(r_image - sign * r) > 5e-10:
            return False
    return True


def definition_ranks(a):
    """Fractional ranks straight from the definition via pair counting."""
    a = np.asarray(a, dtype=float)
    less = (a[None, :] < a[:, None]).sum(axis=1)
    equal = (a[None, :] == a[:, None]).sum(axis=1)
    return 1.0 + less + (equal - 1) / 2.0


class TestPearson:
    def test_perfect(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_anti(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        # direct evaluation: cov=1, sigma_a=sqrt(2/3), sigma_b=sqrt(14)/3
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / math.sqrt(84),
                                                              abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1, 2], [1, 2, 3])

    def test_constant_input_degenerate(self):
        with pytest.raises(ConstantInputError):
            pearson([5, 5, 5], [1, 2, 3])
        with pytest.raises(ConstantInputError):
            pearson([1, 2, 3], [2.5, 2.5, 2.5])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1], [2])


class TestRanks:
    def test_distinct(self):
        assert rank_with_ties([10, 20, 30]).tolist() == [1, 2, 3]

    def test_tied_pair(self):
        assert rank_with_ties([5, 5, 7]).tolist() == [1.5, 1.5, 3]

    def test_tied_block(self):
        assert rank_with_ties([3, 1, 3, 2]).tolist() == [3.5, 1, 3.5, 2]

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_definition(self, values):
        got = rank_with_ties(values)
        want = definition_ranks(values)
        assert np.allclose(got, want)


class TestSpearman:
    def test_monotone_transform_is_one(self):
        a = np.asarray([0.3, 1.7, 2.0, 5.5])
        assert spearman(a, np.exp(a)) == pytest.approx(1.0)

    def test_hand_value(self):
        assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_reversed(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


class TestKendall:
    def test_hand_value(self):
        assert kendall([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_identical(self):
        assert kendall([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed(self):
        assert kendall([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_tau_a_keeps_full_denominator_under_ties(self):
        # one tied pair in a: s_c=2, s_d=0, denominator stays 3
        assert kendall([1, 1, 2], [5, 6, 7]) == pytest.approx(2 / 3)

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=120).filter(
        lambda v: len(set(v)) > 1),
        st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_match_brute_force(self, a, data):
        b = data.draw(st.lists(st.integers(-4, 4), min_size=len(a),
                               max_size=len(a)).filter(lambda v: len(set(v)) > 1))
        res = correlate(a, b)
        assert (res.s_c, res.s_d) == brute_force_counts(a, b)


class TestSymmetryAndInvariance:
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=50)
           .filter(lambda v: len(set(v)) > 1), st.data())
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, a, data):
        b = data.draw(st.lists(st.floats(-100, 100), min_size=len(a),
                               max_size=len(a)).filter(lambda v: len(set(v)) > 1))
        assert pearson(a, b) == pytest.approx(pearson(b, a), abs=1e-12)
        assert spearman(a, b) == pytest.approx(spearman(b, a), abs=1e-12)
        assert kendall(a, b) == pytest.approx(kendall(b, a), abs=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=40)
           .filter(lambda v: len({2.0 * x - 1.0 for x in v}) > 1),
           st.floats(0.01, 100), st.floats(-10, 10))
    @settings(max_examples=80, deadline=None)
    # exact images, but with a spread near the ulp of the values: the
    # deviations must be taken from the true centre, not the rounded mean
    @example(a=[0.0, 0.0, 2.220446049250313e-16], scale=1.0, shift=1.0)
    def test_pearson_affine_invariance(self, a, scale, shift):
        # the float map must stay affine (shift=2.0 rounds 2 + 2**-52 to 2)
        assume(affine_image_keeps_r(a, scale, shift))
        b = [2.0 * x - 1.0 for x in a]
        base = pearson(a, b)
        assert pearson([scale * x + shift for x in a], b) == pytest.approx(
            base, abs=1e-9)
        assert pearson([-scale * x + shift for x in a], b) == pytest.approx(
            -base, abs=1e-9)

    def test_affine_guard_skips_only_images_that_lose_r(self):
        tiny = 2.220446049250313e-16
        # the explicit example above: exact images, so it is checked
        assert affine_image_keeps_r([0.0, 0.0, tiny], 1.0, 1.0)
        # small spread, rounding moves r by about 1e-11
        assert affine_image_keeps_r([0.0, 0.0, 1e-5], 1.0, 1.0)
        # 2 + tiny rounds to 2: the image is constant
        assert not affine_image_keeps_r([0.0, 0.0, tiny], 1.0, 2.0)

    @given(st.lists(st.floats(-20, 20), min_size=3, max_size=40)
           .filter(lambda v: len(set(v)) > 1)
           # the float image of the monotone map must preserve distinctness
           .filter(lambda v: len({math.exp(0.1 * x) + 3 * x for x in v})
                   == len(set(v))),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_coefficients_monotone_invariance(self, a, data):
        b = data.draw(st.lists(st.floats(-20, 20), min_size=len(a),
                               max_size=len(a)).filter(lambda v: len(set(v)) > 1))
        a_t = [math.exp(0.1 * x) + 3 * x for x in a]  # strictly increasing
        assert spearman(a_t, b) == pytest.approx(spearman(a, b), abs=1e-12)
        assert kendall(a_t, b) == pytest.approx(kendall(a, b), abs=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200)
           .filter(lambda v: len(set(v)) > 1), st.data())
    @settings(max_examples=80, deadline=None)
    def test_bounds(self, a, data):
        b = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(a),
                               max_size=len(a)).filter(lambda v: len(set(v)) > 1))
        for f in (pearson, spearman, kendall):
            assert abs(f(a, b)) <= 1 + 1e-12


class TestCorrelate:
    def test_regular(self):
        res = correlate([1, 2, 3], [1, 3, 2])
        assert not res.degenerate
        assert res.rho == pytest.approx(0.5)
        assert res.tau == pytest.approx(1 / 3)
        assert (res.s_c, res.s_d) == (2, 1)

    def test_degenerate_is_none_not_zero(self):
        res = correlate([1, 1, 1], [1, 2, 3])
        assert res.degenerate
        assert res.r is None and res.rho is None and res.tau is None

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=150).filter(
        lambda v: len(set(v)) > 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_single_coefficients_bit_for_bit(self, a, data):
        b = data.draw(st.lists(st.floats(-5, 5), min_size=len(a),
                               max_size=len(a)).filter(lambda v: len(set(v)) > 1))
        res = correlate(a, b)
        assert res.r == pearson(a, b)
        assert res.rho == spearman(a, b) == pearson(rank_with_ties(a),
                                                    rank_with_ties(b))
        assert res.tau == kendall(a, b)
        assert (res.s_c, res.s_d) == brute_force_counts(a, b)

    def test_checks_once_and_ranks_each_vector_once(self, monkeypatch):
        import centbench.stats as stats
        calls = {"_check_pair": 0, "_dense_ranks": 0}
        for name in calls:
            def counted(*args, _fn=getattr(stats, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(stats, name, counted)
        correlate([3.0, 1.0, 2.0, 2.0], [1.0, 1.0, 5.0, 4.0])
        assert calls == {"_check_pair": 1, "_dense_ranks": 2}


def test_against_scipy_on_untied_data(np_rng):
    scipy_stats = pytest.importorskip("scipy.stats")
    for _ in range(20):
        s = int(np_rng.integers(3, 200))
        a = np_rng.normal(size=s)
        b = np_rng.normal(size=s)
        assert pearson(a, b) == pytest.approx(scipy_stats.pearsonr(a, b)[0],
                                              abs=1e-10)
        assert spearman(a, b) == pytest.approx(scipy_stats.spearmanr(a, b)[0],
                                               abs=1e-10)
        # tau-a equals tau-b when no ties are present
        assert kendall(a, b) == pytest.approx(scipy_stats.kendalltau(a, b)[0],
                                              abs=1e-10)
