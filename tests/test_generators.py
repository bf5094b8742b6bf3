import hashlib
import math

import numpy as np
import pytest

from centbench import (GeneratorSpec, clustering_coefficient, gen_erdos_renyi,
                       gen_holme_kim, gen_nws_small_world, is_connected)
from centbench.rng import _Draws, make_rng

from conftest import traced_peak

BOUNDS = [1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32]


class TestDraws:
    """``_Draws`` against numpy's own scalar draws from the same seed."""

    @pytest.mark.parametrize("seed", [0, 1, 606, 2**64 - 1])
    def test_mixed_sequence_matches_generator(self, seed):
        rng, draws = make_rng(seed), _Draws(seed)
        plan = np.random.default_rng(seed ^ 0x5EED)
        highs = BOUNDS + [5, 10, 1000, 123457, 2**20 + 7, 3 * 2**30]
        # a random mix of random() and below() runs past several raw blocks,
        # so the kept half crosses random() calls and block edges
        for _ in range(6000):
            if plan.random() < 0.3:
                assert draws.random() == rng.random()
            else:
                high = int(highs[plan.integers(len(highs))])
                assert draws.below(high) == int(rng.integers(high))

    @pytest.mark.parametrize("high", BOUNDS)
    def test_bound_matches_generator(self, high):
        # 2**31 + 1 rejects about half of all draws
        rng, draws = make_rng(7), _Draws(7)
        got = [draws.below(high) for _ in range(3000)]
        assert got == [int(rng.integers(high)) for _ in range(3000)]
        assert all(0 <= x < high for x in got)
        # the stream then continues in step
        assert draws.random() == rng.random()

    def test_below_one_takes_no_bits(self):
        rng, draws = make_rng(3), _Draws(3)
        assert [draws.below(1) for _ in range(5)] == [0] * 5
        assert draws.below(10) == int(rng.integers(10))
        assert draws.random() == rng.random()

    @pytest.mark.parametrize("high", [0, -1, 2**32 + 1, 2**40])
    def test_bound_out_of_range(self, high):
        with pytest.raises(ValueError, match=r"^high must be in \[1, 2\*\*32\]"):
            _Draws(1).below(high)


class TestErdosRenyi:
    def test_p_zero_empty(self):
        assert gen_erdos_renyi(5, 0.0, seed=1).m == 0

    def test_p_one_complete(self):
        g = gen_erdos_renyi(5, 1.0, seed=1)
        assert g.m == 10
        assert g.edge_list() == [(u, v) for u in range(5) for v in range(u + 1, 5)]

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            gen_erdos_renyi(5, 1.5, seed=1)
        with pytest.raises(ValueError):
            gen_erdos_renyi(5, -0.1, seed=1)

    def test_edge_count_within_4_sigma(self):
        # Binomial(C(1000,2), 0.01): mean 4995, sigma ~ 70.3
        mean = math.comb(1000, 2) * 0.01
        sigma = math.sqrt(mean * 0.99)
        for seed in (0, 1, 2, 3, 4):
            m = gen_erdos_renyi(1000, 0.01, seed=seed).m
            assert abs(m - mean) <= 4 * sigma

    @pytest.mark.parametrize("p", [1e-310, 5e-324])
    def test_tiny_p_gap_past_the_end(self, p):
        # log1p(-p) is subnormal, so the gap overflows to infinity
        for seed in (1, 2, 3):
            g = gen_erdos_renyi(100, p, seed=seed)
            assert (g.n, g.m) == (100, 0)

    def test_deterministic(self):
        a = gen_erdos_renyi(300, 0.02, seed=99)
        b = gen_erdos_renyi(300, 0.02, seed=99)
        assert a.edge_list() == b.edge_list()
        c = gen_erdos_renyi(300, 0.02, seed=100)
        assert c.edge_list() != a.edge_list()

    def test_simple_graph_invariants(self):
        g = gen_erdos_renyi(200, 0.05, seed=7)
        assert int(g.degrees.sum()) == 2 * g.m
        seen = set()
        for u, v in g.edge_list():
            assert u < v
            assert (u, v) not in seen
            seen.add((u, v))


class TestNewmanWatts:
    def test_p_zero_is_ring(self):
        g = gen_nws_small_world(6, 2, 0.0, seed=1)
        assert g.m == 6
        assert np.all(g.degrees == 2)

    def test_min_degree_at_least_k(self):
        g = gen_nws_small_world(200, 6, 0.6, seed=3)
        assert int(g.degrees.min()) >= 6

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_nws_small_world(10, 3, 0.5, seed=1)  # odd k
        with pytest.raises(ValueError):
            gen_nws_small_world(6, 6, 0.5, seed=1)  # k >= n

    def test_shortcut_count_within_4_sigma(self):
        # lattice has 3000 edges; shortcuts ~ Binomial(3000, 0.6)
        sigma = math.sqrt(3000 * 0.6 * 0.4)
        for seed in (0, 1, 2):
            m = gen_nws_small_world(1000, 6, 0.6, seed=seed).m
            assert abs(m - 4800) <= 4 * sigma

    @pytest.mark.parametrize("n, k, p", [(5, 4, 0.5), (6, 4, 0.9), (7, 6, 0.3)])
    def test_shortcuts_stop_at_complete_graph(self, n, k, p):
        g = gen_nws_small_world(n, k, p, seed=1)
        assert g.m == n * (n - 1) // 2
        assert np.all(g.degrees == n - 1)

    def test_deterministic(self):
        a = gen_nws_small_world(150, 4, 0.5, seed=11)
        b = gen_nws_small_world(150, 4, 0.5, seed=11)
        assert a.edge_list() == b.edge_list()


class TestHolmeKim:
    def test_minimal(self):
        g = gen_holme_kim(2, 1, 0.3, seed=1)
        assert g.m == 1

    def test_edge_total_and_min_degree(self):
        g = gen_holme_kim(400, 5, 0.3, seed=2)
        assert g.m == (400 - 5) * 5
        assert int(g.degrees[5:].min()) >= 5
        assert is_connected(g)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_holme_kim(5, 0, 0.3, seed=1)
        with pytest.raises(ValueError):
            gen_holme_kim(5, 5, 0.3, seed=1)

    def test_heavy_tail_over_seeds(self):
        # scale-free signature: max degree well above the mean
        for seed in range(10):
            g = gen_holme_kim(1000, 5, 0.3, seed=seed)
            mean_deg = g.degrees.mean()
            assert g.degrees.max() >= 5 * mean_deg

    def test_clustering_beats_degree_matched_er(self):
        hk_mean = np.mean([
            clustering_coefficient(gen_holme_kim(500, 5, 0.3, seed=s)).mean()
            for s in range(10)])
        m_expected = (500 - 5) * 5
        p_matched = 2 * m_expected / (500 * 499)
        er_mean = np.mean([
            clustering_coefficient(gen_erdos_renyi(500, p_matched, seed=s)).mean()
            for s in range(10)])
        assert hk_mean > er_mean

    def test_deterministic(self):
        a = gen_holme_kim(200, 3, 0.3, seed=42)
        b = gen_holme_kim(200, 3, 0.3, seed=42)
        assert a.edge_list() == b.edge_list()

    def test_memory_bounded_on_criterion6_graph(self):
        # the growth loop's sets and lists are freed before the CSR build:
        # the tracemalloc peak measured 7.3 MB, and the bound leaves about
        # 25% headroom. Keeping them alive through the build peaks at 12.5 MB
        _, peak = traced_peak(gen_holme_kim, 10000, 5, 0.3, 606)
        assert peak < 9.2e6, f"peak {peak / 1e6:.1f} MB"


class TestRecordedEdgeLists:
    """sha256 of ``edge_u`` then ``edge_v`` (int64, little-endian bytes),
    recorded with the Holme-Kim triad step that listed every eligible
    neighbour of the previous target before drawing one. The cases cover
    the criterion-6 graph, p = 0 and p = 1, m = 1, and m = n - 1, where
    preferential attachment saturates and falls back to the uniform pool."""

    @pytest.mark.parametrize("make, digest", [
        (lambda: gen_holme_kim(10000, 5, 0.3, seed=606),
         "3b614f166ea18c28db0c2a0945cff76fd93ff0ba2aed3003dbce2ff047166e1c"),
        (lambda: gen_holme_kim(2000, 5, 1.0, seed=1),
         "3186245ad7b6fe76194f8949cb5510a204f73636c88328aef2989e4ea7c20a8a"),
        (lambda: gen_holme_kim(50, 49, 0.5, seed=2),
         "3e959f5e6c2364be4ecac735b6e30affa73890081bf8e4eedd8af5a7d82a6d47"),
        (lambda: gen_holme_kim(30, 29, 1.0, seed=3),
         "68a579d60c638b19f6f1e44763f763e69e50903b7a3ff44d652056270cdfe015"),
        (lambda: gen_holme_kim(1000, 25, 0.3, seed=4),
         "616edc8bcc92ed3bbb995622a36cd86ce1b817c28dba98ac8c41f9be2c7e4040"),
        (lambda: gen_holme_kim(500, 3, 0.9, seed=5),
         "db4c55af92cfadb1b709c39b3eecd92bb4bd3e78099e2bda850efdeb4f339dcb"),
        (lambda: gen_holme_kim(200, 1, 0.5, seed=6),
         "75f7efed25df506970d08d34b148e9345a148dc5eaeff8c4771455b6f944884b"),
        (lambda: gen_holme_kim(1000, 15, 0.7, seed=7),
         "919c68b55efe0de85b3f39cf0c6f06d7cbf9ec4e4b61f8b96e1c9ba7e5047df3"),
        (lambda: gen_holme_kim(100, 10, 1.0, seed=8),
         "4296565c11e7b7c1015609d90927b13334eb365918409c66b5a9921699dd6ae1"),
        (lambda: gen_holme_kim(300, 2, 0.0, seed=9),
         "0d261dd6d1ba29b962d9b557622370f6f09b6829e1bf409f869f8de616361b27"),
        (lambda: gen_erdos_renyi(500, 0.02, seed=3),
         "2501d69ebb6ef847152335f4890ea954dc09156c13cd6b477c5bb75b51ee3c33"),
        (lambda: gen_nws_small_world(500, 6, 0.6, seed=4),
         "703db2a4bf2a0b70d46d1a5ec974e8b3e7874bd9037774a821e8041de01c3b2d"),
    ], ids=["hk-criterion6", "hk-p1", "hk-m-n-1", "hk-m-n-1-p1", "hk-m25",
            "hk-p0.9", "hk-m1", "hk-m15", "hk-m10-p1", "hk-p0", "er", "nws"])
    def test_edge_list_digest(self, make, digest):
        g = make()
        data = g.edge_u.astype("<i8").tobytes() + g.edge_v.astype("<i8").tobytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestGeneratorSpec:
    def test_dispatch(self):
        assert GeneratorSpec("ER", 10, 0.0, seed=1).generate().m == 0
        assert GeneratorSpec("SW", 8, 2, 0.0, seed=1).generate().m == 8
        assert GeneratorSpec("SF", 10, 2, 0.3, seed=1).generate().m == 16

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            GeneratorSpec("XX", 10, 1, seed=1).generate()

    @pytest.mark.parametrize("family, param, message", [
        ("SF", 2.5, r"^SF parameter m must be an integer, got 2\.5$"),
        ("SW", 4.5, r"^SW parameter k must be an integer, got 4\.5$"),
        ("SF", math.inf, r"^SF parameter m must be an integer, got inf$"),
    ])
    def test_fractional_parameter_rejected(self, family, param, message):
        with pytest.raises(ValueError, match=message):
            GeneratorSpec(family, 30, param, 0.3, seed=1).generate()

    @pytest.mark.parametrize("family, param", [("SF", 3), ("SW", 4)])
    def test_integral_float_parameter_runs(self, family, param):
        whole = GeneratorSpec(family, 30, param, 0.3, seed=1).generate()
        as_float = GeneratorSpec(family, 30, float(param), 0.3, seed=1).generate()
        assert as_float.edge_list() == whole.edge_list()
