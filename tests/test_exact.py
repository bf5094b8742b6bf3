import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import centbench.exact
from centbench import (DisconnectedGraphError, ExperimentConfig, GeneratorSpec,
                       betweenness_centrality, build_graph, cell_scores,
                       closeness_centrality, clustering_coefficient,
                       degree_centrality, gen_holme_kim, is_connected,
                       largest_connected_component, triangle_counts)

from conftest import (complete_graph, cycle_graph, layered_graph, path_graph,
                      random_graph, stages_only, star_graph)
from reference import (level_mask_brandes, oracle_betweenness,
                       oracle_closeness)


def two_holme_kim_copies():
    g = gen_holme_kim(300, 3, 0.3, seed=1)
    edges = np.stack([g.edge_u, g.edge_v], axis=1)
    return build_graph(np.concatenate([edges, edges + 300]), 600)


class TestDegree:
    def test_path(self):
        assert degree_centrality(path_graph(3)).tolist() == [0.5, 1.0, 0.5]

    def test_complete(self):
        assert degree_centrality(complete_graph(4)).tolist() == [1, 1, 1, 1]

    def test_star(self):
        dc = degree_centrality(star_graph(3))
        assert dc[0] == pytest.approx(1.0)
        assert np.allclose(dc[1:], 1 / 3)

    def test_single_node_errors(self):
        with pytest.raises(ValueError):
            degree_centrality(build_graph([], 1))


class TestBetweenness:
    def test_path(self):
        assert betweenness_centrality(path_graph(3)).tolist() == [0, 1, 0]

    def test_star(self):
        bc = betweenness_centrality(star_graph(3))
        assert bc[0] == pytest.approx(3.0)  # C(3,2) leaf pairs
        assert np.allclose(bc[1:], 0.0)

    def test_cycle4(self):
        # opposite pair has two shortest paths, one through each intermediate
        assert np.allclose(betweenness_centrality(cycle_graph(4)), 0.5)

    def test_disconnected_pairs_contribute_zero(self):
        g = build_graph([(0, 1), (1, 2), (3, 4)], 5)
        assert betweenness_centrality(g).tolist() == [0, 1, 0, 0, 0]

    def test_matches_oracle_on_er_sample(self, np_rng):
        g = random_graph(50, 0.1, np_rng)
        assert np.allclose(betweenness_centrality(g), oracle_betweenness(g),
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("g", [
        path_graph(9), star_graph(7), complete_graph(8),
        # isolated nodes 1, 4 and 7 around a component with a triangle
        build_graph([(0, 2), (2, 3), (3, 5), (2, 5), (5, 6)], 8),
        # two source blocks, and distances above 255
        path_graph(260),
        # components that cross the 256-source block boundary
        two_holme_kim_copies(),
        # many equal-length paths, and edges inside a level
        layered_graph()[0],
    ], ids=["path", "star", "complete", "isolated_nodes", "long_path",
            "two_components", "layered"])
    def test_bit_identical_to_level_mask_on_shapes(self, g):
        assert np.array_equal(betweenness_centrality(g), level_mask_brandes(g))

    def test_bit_identical_to_level_mask_on_random_graphs(self, np_rng):
        # p log-uniform on [0.02, 0.5], so that sparse, disconnected graphs
        # are drawn too
        disconnected = 0
        for _ in range(30):
            n = int(np_rng.integers(10, 301))
            p = float(np.exp(np_rng.uniform(np.log(0.02), np.log(0.5))))
            g = random_graph(n, p, np_rng)
            disconnected += not is_connected(g)
            assert np.array_equal(betweenness_centrality(g),
                                  level_mask_brandes(g)), (g.n, g.m)
        assert disconnected >= 3

    def test_bit_identical_to_level_mask_on_holme_kim(self):
        g = gen_holme_kim(1000, 5, 0.3, seed=1)
        assert np.array_equal(betweenness_centrality(g), level_mask_brandes(g))

    def test_memory_bounded_by_one_source_block(self):
        # one 256-source block of distances and bitsets: the peak measured
        # 5.9 MB, while the int16 distances of all 3000 sources at once
        # would take 18 MB and a 1024-source block exceeds the bound
        g = gen_holme_kim(3000, 5, 0.3, seed=606)
        tracemalloc.start()
        try:
            betweenness_centrality(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"


class TestOracleBetweenness:
    def test_path(self):
        assert oracle_betweenness(path_graph(3)).tolist() == [0, 1, 0]

    def test_cycle4(self):
        assert np.allclose(oracle_betweenness(cycle_graph(4)), 0.5)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="oracle"):
            oracle_betweenness(path_graph(250))


class TestCloseness:
    def test_path(self):
        cl = closeness_centrality(path_graph(3))
        assert cl.tolist() == [1.0, 1.5, 1.0]

    def test_complete4(self):
        assert np.allclose(closeness_centrality(complete_graph(4)), 4 / 3)

    def test_cycle5(self):
        assert np.allclose(closeness_centrality(cycle_graph(5)), 5 / 6)

    def test_disconnected_names_pair(self):
        g = build_graph([(0, 1)], 3)
        with pytest.raises(DisconnectedGraphError, match="node 2.*from node 0"):
            closeness_centrality(g)

    def test_single_node_errors(self):
        with pytest.raises(ValueError):
            closeness_centrality(build_graph([], 1))

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 256, 257, 300])
    def test_equals_oracle_across_word_and_block_edges(self, n, np_rng):
        # a random spanning tree plus about n random chords
        tree = [(int(np_rng.integers(v)), v) for v in range(1, n)]
        chords = {(min(a, b), max(a, b))
                  for a, b in np_rng.integers(n, size=(n, 2)).tolist()
                  if a != b}
        g = build_graph(sorted(set(tree) | chords), n)
        assert np.array_equal(closeness_centrality(g), oracle_closeness(g))

    @pytest.mark.parametrize("g", [path_graph(70), star_graph(300),
                                   complete_graph(66)],
                             ids=["path", "star", "complete"])
    def test_equals_oracle_on_shapes(self, g):
        assert np.array_equal(closeness_centrality(g), oracle_closeness(g))

    @pytest.mark.parametrize("edges, n, message", [
        ([(0, 1), (1, 2)], 4, "node 3 is unreachable from node 0"),
        ([(1, 2), (2, 3)], 4, "node 1 is unreachable from node 0"),
        ([], 5, "node 1 is unreachable from node 0"),
        ([(0, 2), (1, 3), (3, 4)], 5, "node 1 is unreachable from node 0"),
    ], ids=["isolated-last", "isolated-first", "no-edges", "two-components"])
    def test_disconnected_error_matches_oracle(self, edges, n, message):
        g = build_graph(edges, n)
        for fn in (oracle_closeness, closeness_centrality):
            with pytest.raises(DisconnectedGraphError) as info:
                fn(g)
            assert str(info.value) == message

    def test_memory_bounded_on_criterion6_graph(self, criterion6_graph):
        # the bitsets of one 256-source block: the peak measured 7.2 MB,
        # and a 1024-source block exceeds the bound
        tracemalloc.start()
        try:
            closeness_centrality(criterion6_graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"


class TestClustering:
    def test_triangle(self):
        assert clustering_coefficient(complete_graph(3)).tolist() == [1, 1, 1]

    def test_path_is_zero(self):
        assert clustering_coefficient(path_graph(3)).tolist() == [0, 0, 0]

    def test_k4_minus_edge(self):
        # nodes 0,1 lose the edge between them: d=2, one triangle -> CC=1
        g = build_graph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
        cc = clustering_coefficient(g)
        assert cc[0] == pytest.approx(1.0)
        assert cc[1] == pytest.approx(1.0)
        assert cc[2] == pytest.approx(2 / 3)
        assert cc[3] == pytest.approx(2 / 3)

    @pytest.mark.parametrize("wedges", [1, 3, None],
                             ids=["one-slot-chunks", "chunks-end-in-rows",
                                  "default"])
    def test_triangle_counts_match_dense_reference(self, np_rng, monkeypatch,
                                                   wedges):
        """The forward count equals closed 3-walks / 2 from a dense matrix.

        Random graphs on few nodes have many equal degrees, so the (degree,
        id) rank order and the orientation of tied edges are exercised. A
        small wedge budget splits the count into chunks of one slot each, or
        into chunks that end inside an out-row.
        """
        if wedges is not None:
            monkeypatch.setattr(centbench.exact, "_WEDGES", wedges)
        def reference(g):
            a = np.zeros((g.n, g.n))
            a[g.edge_u, g.edge_v] = a[g.edge_v, g.edge_u] = 1.0
            return np.rint(((a @ a) * a).sum(axis=1) / 2.0).astype(np.int64)

        graphs = [star_graph(6), complete_graph(7), build_graph([], 5)]
        for _ in range(30):
            graphs.append(random_graph(int(np_rng.integers(4, 45)),
                                       float(np_rng.uniform(0.1, 0.5)), np_rng))
        for g in graphs:
            assert triangle_counts(g).tolist() == reference(g).tolist(), g
        assert triangle_counts(complete_graph(7)).tolist() == [15] * 7

    @pytest.mark.parametrize("n", [46341, 46342], ids=["int32", "int64"])
    def test_triangle_counts_with_keys_at_the_int32_limit(self, n):
        # a K4 on the four highest ids and a triangle below them, all other
        # nodes isolated: degree order ranks the K4 last, so its keys reach
        # the largest possible, n * n - n - 1, which int32 holds up to
        # n = 46,341 and wraps past it
        k4 = list(combinations(range(n - 4, n), 2))
        tri = [(100, 101), (101, 102), (100, 102)]
        want = np.zeros(n, dtype=np.int64)
        want[n - 4:] = 3
        want[100:103] = 1
        assert np.array_equal(triangle_counts(build_graph(k4 + tri, n)), want)

    # tracemalloc peaks of triangle_counts measured 2.87 MB on the
    # criterion-6 graph and 2.04 MB on the SF m=25 LCC of the dense desk row
    # (n=1000, m=24375); the bounds leave about 25% headroom. Int64 keys and
    # ranks peak at 4.29 and 3.12 MB, above both bounds, and listing every
    # wedge at once at 7.2 and 14.3 MB
    def test_memory_bounded_on_criterion6_graph(self, criterion6_graph):
        tracemalloc.start()
        try:
            triangle_counts(criterion6_graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6e6, f"peak {peak / 1e6:.1f} MB"

    def test_memory_bounded_on_a_dense_desk_cell(self):
        cfg = ExperimentConfig(n=1000, sf_m=[25], base_seed=20240807)
        family, param, seed = cfg.cells()[0]
        g, _ = cell_scores(cfg.generator_spec(family, param, seed), seed,
                           cfg.got, cfg.kpath, stage=stages_only("gen", "lcc"))
        assert (family, param, g.m) == ("SF", 25, 24375)
        tracemalloc.start()
        try:
            triangle_counts(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6e6, f"peak {peak / 1e6:.1f} MB"


class TestNetworkxCrossCheck:
    """Exact measures against networkx beyond the oracle's n <= 200.

    Conventions: networkx's unnormalized betweenness equals ours, and our
    closeness ``n / sum_j d_ij`` is networkx's ``(n-1) / sum_j d_ij`` times
    ``n / (n-1)``.
    """

    @pytest.fixture(scope="class")
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def to_nx(nx, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edge_list())
        return h

    @staticmethod
    def as_array(scores, n):
        return np.asarray([scores[i] for i in range(n)])

    @pytest.mark.parametrize("spec", [("SF", 1000, 3, 0.3, 11),
                                      ("ER", 500, 0.012, 0.0, 12)])
    def test_betweenness_and_closeness(self, nx, spec):
        g, _ = largest_connected_component(GeneratorSpec(*spec).generate())
        assert g.n >= 450
        h = self.to_nx(nx, g)
        want_bc = self.as_array(nx.betweenness_centrality(h, normalized=False), g.n)
        assert np.allclose(betweenness_centrality(g), want_bc,
                           rtol=1e-9, atol=1e-9)
        want_cl = self.as_array(nx.closeness_centrality(h), g.n) * g.n / (g.n - 1)
        assert np.allclose(closeness_centrality(g), want_cl, rtol=1e-12, atol=0)

    def test_clustering_on_criterion6_graph(self, nx, criterion6_graph):
        g = criterion6_graph
        h = self.to_nx(nx, g)
        assert np.array_equal(triangle_counts(g),
                              self.as_array(nx.triangles(h), g.n))
        assert np.allclose(clustering_coefficient(g),
                           self.as_array(nx.clustering(h), g.n),
                           rtol=1e-12, atol=0)


class TestStructuralProperties:
    def test_vertex_transitive_graphs_constant(self):
        for g in (cycle_graph(7), complete_graph(5)):
            for fn in (degree_centrality, betweenness_centrality,
                       closeness_centrality, clustering_coefficient):
                scores = fn(g)
                assert np.allclose(scores, scores[0])

    def test_permutation_equivariance(self, np_rng):
        g = random_graph(25, 0.2, np_rng)
        perm = np_rng.permutation(g.n)
        relabeled = build_graph(
            [(perm[u], perm[v]) for u, v in g.edge_list()], g.n)
        for fn in (degree_centrality, betweenness_centrality,
                   clustering_coefficient):
            base = fn(g)
            mapped = fn(relabeled)
            assert np.allclose(mapped[perm], base, atol=1e-9)

    def test_closeness_permutation_equivariance(self, np_rng):
        from conftest import random_connected_graph
        g = random_connected_graph(20, 0.25, np_rng)
        perm = np_rng.permutation(g.n)
        relabeled = build_graph(
            [(perm[u], perm[v]) for u, v in g.edge_list()], g.n)
        base = closeness_centrality(g)
        mapped = closeness_centrality(relabeled)
        assert np.allclose(mapped[perm], base, atol=1e-12)

    def test_bounds(self, np_rng):
        g = random_graph(30, 0.15, np_rng)
        dc = degree_centrality(g)
        cc = clustering_coefficient(g)
        bc = betweenness_centrality(g)
        assert np.all((0 <= dc) & (dc <= 1))
        assert np.all((0 <= cc) & (cc <= 1))
        assert np.all(bc >= 0)

    def test_brandes_equals_oracle_including_disconnected(self, np_rng):
        for _ in range(25):
            n = int(np_rng.integers(2, 60))
            p = float(np_rng.uniform(0.02, 0.4))
            g = random_graph(n, p, np_rng)
            assert np.allclose(betweenness_centrality(g),
                               oracle_betweenness(g), rtol=1e-12, atol=1e-12)
