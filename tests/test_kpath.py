import hashlib

import numpy as np
import pytest

import centbench.kpath
from centbench import (ExperimentConfig, KpathConfig, build_graph,
                       cell_scores, correlate, werw_kpath)

from conftest import (complete_graph, path_graph, per_slot_for,
                      random_connected_graph, stages_only, star_graph,
                      traced_peak)
from reference import oracle_kpath, werw_kpath_reference


class TestOracle:
    def test_single_edge_k1(self):
        # one trail from each endpoint, both through the edge
        assert oracle_kpath(build_graph([(0, 1)], 2), 1).tolist() == [2.0]

    def test_p3_k1(self):
        # ends contribute 1 on their own edge, the middle 1/2 on each
        assert oracle_kpath(path_graph(3), 1).tolist() == [1.5, 1.5]

    def test_p3_k2(self):
        # end-sourced trails of length <= 2 all reach the far edge
        assert oracle_kpath(path_graph(3), 2).tolist() == [2.0, 2.0]

    def test_p4_k2_middle_edge_dominates(self):
        scores = oracle_kpath(path_graph(4), 2)
        assert scores.tolist() == pytest.approx([5 / 3, 7 / 3, 5 / 3])

    def test_symmetric_edges_exactly_tied(self):
        scores = oracle_kpath(star_graph(4), 3)
        assert len(set(scores.tolist())) == 1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            oracle_kpath(path_graph(12), 2)
        with pytest.raises(ValueError):
            oracle_kpath(path_graph(4), 7)


class TestWerwKpath:
    def test_single_edge_forced_walks(self):
        g = build_graph([(0, 1)], 2)
        for per_slot in (1, 2, 4):
            scores = werw_kpath(g, KpathConfig(k=10, walks_per_slot=per_slot,
                                               seed=3))
            assert scores.tolist() == [2.0]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            werw_kpath(build_graph([], 3), KpathConfig())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            werw_kpath(path_graph(3), KpathConfig(k=0))
        with pytest.raises(ValueError):
            werw_kpath(path_graph(3), KpathConfig(walks_per_slot=0))

    def test_k_below_one_rejected_when_built(self):
        for k in (0, -2):
            with pytest.raises(ValueError) as err:
                KpathConfig(k=k)
            assert str(err.value) == f"k must be at least 1, got {k}"

    def test_resolve_gives_the_total_walk_count(self):
        assert KpathConfig(walks_per_slot=1).resolve(7) == (10, 14)
        assert KpathConfig().resolve(7) == (10, 56)
        assert KpathConfig(k=3).resolve(25) == (3, 200)

    def test_rho_is_not_a_field(self):
        # the total walk count gave way to a whole count per slot
        with pytest.raises(TypeError, match="rho"):
            KpathConfig(rho=400)

    def test_default_budget_covers_every_source(self):
        # every adjacency slot gets walks, so the highest-id sources do too
        g = path_graph(8)
        reversed_ids = build_graph([(7 - u, 7 - v) for u, v in g.edge_list()], 8)
        for h in (g, reversed_ids):
            assert werw_kpath(h, KpathConfig(k=1)).tolist() == \
                oracle_kpath(h, 1).tolist()

    def test_deterministic(self, np_rng):
        g = random_connected_graph(20, 0.25, np_rng)
        cfg = KpathConfig(k=5, walks_per_slot=per_slot_for(500, g), seed=42)
        a = werw_kpath(g, cfg)
        b = werw_kpath(g, cfg)
        assert np.array_equal(a, b)

    def test_exact_for_k_up_to_two(self, np_rng):
        # every first-edge stratum (adjacency slot) gets walks, and the last
        # level is analytic, so k <= 2 estimates equal the oracle up to float
        # rounding
        for _ in range(6):
            g = random_connected_graph(int(np_rng.integers(3, 9)), 0.5, np_rng)
            for k in (1, 2):
                est = werw_kpath(g, KpathConfig(k=k, seed=1))
                assert np.allclose(est, oracle_kpath(g, k), atol=1e-12)

    def test_seed_mean_matches_oracle_at_default_budget(self):
        # the per-source ratio of sampled masses is biased by O(1/walks);
        # at the default budget the mean over seeds must sit within 5% of the
        # oracle on every edge
        rng = np.random.default_rng(5)
        worst = []
        for _ in range(3):
            g = random_connected_graph(8, 0.45, rng)
            for k in (3, 5):
                oracle = oracle_kpath(g, k)
                mean = np.mean([werw_kpath(g, KpathConfig(k=k, seed=s))
                                for s in range(1000)], axis=0)
                worst.append((g.m, k, float(np.max(np.abs(mean - oracle)
                                                   / oracle))))
        assert max(w for _, _, w in worst) <= 0.05, worst

    def test_p3_symmetry_converges(self):
        scores = werw_kpath(path_graph(3),
                            KpathConfig(k=1, walks_per_slot=5000, seed=11))
        assert np.allclose(scores, 1.5)

    def test_mass_bound(self, np_rng):
        # per source the trail-length fractions sum to at most k
        g = random_connected_graph(12, 0.3, np_rng)
        k = 4
        scores = werw_kpath(g, KpathConfig(
            k=k, walks_per_slot=per_slot_for(3000, g), seed=5))
        assert scores.sum() <= g.n * k + 1e-9
        assert np.all(scores >= 0)

    def test_rank_agreement_with_oracle(self, np_rng):
        checked = 0
        attempts = 0
        while checked < 30 and attempts < 400:
            attempts += 1
            n = int(np_rng.integers(4, 9))
            g = random_connected_graph(n, float(np_rng.uniform(0.3, 0.8)), np_rng)
            k = int(np_rng.integers(1, 4))
            oracle = oracle_kpath(g, k)
            if len(np.unique(oracle)) < max(2, oracle.size):
                continue  # constant or tied oracles cannot be rank-compared
            est = werw_kpath(g, KpathConfig(
                k=k, walks_per_slot=per_slot_for(10000, g),
                seed=int(np_rng.integers(2**32))))
            assert correlate(est, oracle).rho >= 0.9
            checked += 1
        assert checked == 30

    def test_edge_relabeling_equivariance(self, np_rng):
        g = random_connected_graph(10, 0.4, np_rng)
        edges = g.edge_list()
        perm = np_rng.permutation(len(edges))
        shuffled = build_graph([edges[i] for i in perm], g.n)
        cfg = KpathConfig(k=3, walks_per_slot=per_slot_for(2000, g), seed=77)
        a = werw_kpath(g, cfg)
        b = werw_kpath(shuffled, cfg)
        assert np.array_equal(b, a[perm])

    def test_memory_bounded_on_criterion6_graph(self, criterion6_graph):
        # 400k walks in blocks of BLOCK_WALKS: the tracemalloc peak measured
        # 12.65 MB, and the bound leaves about 25% headroom
        _, peak = traced_peak(werw_kpath, criterion6_graph,
                              KpathConfig(seed=607))
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"

    def test_memory_bounded_on_a_source_larger_than_a_block(self):
        # the hub's 80k walks are one block, held until its total is known:
        # the tracemalloc peak measured 26.9 MB, and the bound leaves about
        # 25% headroom
        leaves = 20000
        g = build_graph([(0, i) for i in range(1, leaves + 1)]
                        + [(i, i + 1) for i in range(1, leaves, 2)], leaves + 1)
        scores, peak = traced_peak(werw_kpath, g, KpathConfig(seed=607))
        assert peak < 34e6, f"peak {peak / 1e6:.1f} MB"
        # recorded when the hub ran twice from one generator state
        assert hashlib.sha256(scores.tobytes()).hexdigest() == \
            "5a89dfe631c94b7973c9afe2b1589125935b90011f9db8f646fb6bcf93b8d23a"


# sha256 of werw_kpath (k = 10, four walks per slot; float64, little-endian
# bytes) on the largest connected component of each sparse desk-row cell,
# with the cell's derived k-path seed, as cell_scores computes it. Recorded
# with the kernel that compared every walk's current node with its whole
# trail and sorted a skip list for every walk at every step; this one must
# reproduce them.
DESK_DIGESTS = {
    "SF": "2899c4eaf8d37c2510b16c5a3ef7948e3bfc462b4f30f3ea3c7e89b51801c654",
    "SW": "97040bd1bf7ecb16da6da68bf4af5d05c66b2c33b47345958a49ba91caee0384",
    "ER": "17aa9c710ec784f338d5d2478fb22df2ab768f2ed335bb70356b31a9aaa5de17",
}


def test_desk_scale_outputs_match_recorded_digests():
    cfg = ExperimentConfig(n=1000, sf_m=[5], sw_k=[6], er_p=[0.01],
                           base_seed=20240807)
    digests = {}
    for family, param, seed in cfg.cells():
        _, scores = cell_scores(family, cfg.n, param, seed, cfg.got,
                                cfg.kpath,
                                stage=stages_only("gen", "lcc", "kpath"))
        digests[family] = hashlib.sha256(scores["kpath"].tobytes()).hexdigest()
    assert digests == DESK_DIGESTS


def _reference_graphs():
    rng = np.random.default_rng(606)
    graphs = {f"random{i}": random_connected_graph(
        int(rng.integers(5, 13)), float(rng.uniform(0.2, 0.6)), rng)
        for i in range(4)}
    graphs["path"] = path_graph(9)
    # a random recursive tree: most trails end at a leaf well before k
    graphs["tree"] = build_graph([(i, int(rng.integers(i)))
                                  for i in range(1, 15)], 15)
    graphs["star"] = star_graph(6)
    # trails come back to a node often here; on the bowtie (two triangles
    # sharing node 2) a trail that comes back can find no edge left
    graphs["K5"] = complete_graph(5)
    graphs["bowtie"] = build_graph([(0, 1), (1, 2), (0, 2),
                                    (2, 3), (3, 4), (2, 4)], 5)
    return graphs


REFERENCE_GRAPHS = _reference_graphs()


PER_SLOT_CASES = (1, 3, 4)


def assert_matches_reference(g, k, per_slot, seed):
    est = werw_kpath(g, KpathConfig(k=k, walks_per_slot=per_slot, seed=seed))
    ref = werw_kpath_reference(g, k, per_slot, seed)
    if k <= 2:
        assert np.array_equal(est, ref), (k, per_slot, est, ref)
    else:
        np.testing.assert_allclose(est, ref, rtol=1e-12, atol=0,
                                   err_msg=f"k={k} walks_per_slot={per_slot}")


class TestBatchedMatchesReference:
    """The batched kernel equals the scalar per-slot sampler draw for draw."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
    def test_small_graphs(self, name):
        g = REFERENCE_GRAPHS[name]
        for per_slot in PER_SLOT_CASES:
            for k in range(1, 11):
                assert_matches_reference(g, k, per_slot,
                                         seed=31 * k + 2 * g.m * per_slot)

    def test_more_walks_than_one_block(self):
        g = random_connected_graph(64, 0.3, np.random.default_rng(8))
        assert 8 * g.m > centbench.kpath.BLOCK_WALKS
        for per_slot in PER_SLOT_CASES:
            for k in (2, 3, 10):
                assert_matches_reference(g, k, per_slot, seed=k)

    def test_sources_larger_than_a_block(self, monkeypatch):
        # a source with more walks than a block runs in chunks, all held
        # until its total mass is known
        monkeypatch.setattr(centbench.kpath, "BLOCK_WALKS", 5)
        for name in ("star", "tree", "random0"):
            g = REFERENCE_GRAPHS[name]
            for per_slot in PER_SLOT_CASES:
                for k in (1, 2, 4, 10):
                    assert_matches_reference(g, k, per_slot, seed=k)
