import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centbench import (Graph, GraphError, build_graph, connected_components,
                       is_connected, largest_connected_component,
                       parse_edge_list, read_edge_list, write_edge_list)

from centbench.graph import bfs_levels
from conftest import cycle_graph, path_graph


def test_build_path_graph():
    g = build_graph([(0, 1), (1, 2)], 3)
    assert g.n == 3 and g.m == 2
    assert g.degrees.tolist() == [1, 2, 1]
    assert g.edge_list() == [(0, 1), (1, 2)]
    assert g.neighbors(1).tolist() == [0, 2]


def test_self_loop_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph([(0, 0)], 1)


def test_duplicate_edge_rejected_unordered():
    with pytest.raises(GraphError, match="duplicate"):
        build_graph([(0, 1), (1, 0)], 2)


def test_node_out_of_range_rejected():
    with pytest.raises(GraphError, match="outside node range"):
        build_graph([(0, 3)], 3)


@pytest.mark.parametrize("edges, n, message", [
    ([(0, 1), (1, 0), (2, 2)], 3, r"^duplicate edge \(0, 1\)$"),
    ([(2, 2), (0, 1), (1, 0)], 3, r"^self-loop at node 2$"),
    ([(0, 5), (0, 1), (1, 0)], 3, r"^edge \(0, 5\) outside node range 0\.\.2$"),
    ([(0, 1), (4, 4)], 3, r"^self-loop at node 4$"),
    ([(0, 1), (-1, 2), (1, 0)], 3, r"^edge \(-1, 2\) outside node range 0\.\.2$"),
    ([(0, 5), (5, 0)], 3, r"^edge \(0, 5\) outside node range 0\.\.2$"),
    ([(2, 0), (1, 2), (0, 2), (2, 1)], 3, r"^duplicate edge \(0, 2\)$"),
    ([(1, 2**70), (0, 0)], 3,
     rf"^edge \(1, {2**70}\) outside node range 0\.\.2$"),
])
def test_first_offending_edge_names_the_error(edges, n, message):
    with pytest.raises(GraphError, match=message):
        build_graph(edges, n)
    if max(map(max, edges)) < 2**63:
        with pytest.raises(GraphError, match=message):
            build_graph(np.asarray(edges), n)


def test_edges_must_be_pairs():
    with pytest.raises(ValueError):
        build_graph([(0, 1, 2), (1, 2, 0)], 3)
    with pytest.raises(ValueError):
        build_graph(np.arange(4), 4)


def test_edge_ids_follow_input_order():
    g = build_graph([(2, 1), (0, 2), (0, 1)], 3)
    assert g.edge_endpoints(0) == (1, 2)
    assert g.edge_endpoints(1) == (0, 2)
    assert g.edge_id(1, 2) == 0
    assert g.edge_id(2, 0) == 1
    assert g.edge_id(0, 1) == 2


def test_empty_graph():
    g = build_graph([], 4)
    assert g.n == 4 and g.m == 0
    assert g.degrees.tolist() == [0, 0, 0, 0]
    assert connected_components(g) == [np.asarray([i]) for i in range(0)] or \
        len(connected_components(g)) == 4


def test_has_edge_and_missing_edge_id():
    g = path_graph(3)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    with pytest.raises(GraphError):
        g.edge_id(0, 2)


class TestLargestConnectedComponent:
    def test_connected_graph_is_identity(self):
        g = path_graph(3)
        sub, mapping = largest_connected_component(g)
        assert sub.edge_list() == g.edge_list()
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_picks_larger_component(self):
        g = build_graph([(0, 1), (1, 2), (3, 4)], 5)
        sub, mapping = largest_connected_component(g)
        assert sub.n == 3 and sub.m == 2
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_tie_goes_to_smallest_node_id(self):
        g = build_graph([(2, 3), (0, 1)], 4)
        sub, mapping = largest_connected_component(g)
        assert sub.n == 2
        assert mapping == {0: 0, 1: 1}

    def test_empty_graph_errors(self):
        with pytest.raises(GraphError):
            largest_connected_component(build_graph([], 0))

    def test_relabeling_is_dense_and_injective(self):
        g = build_graph([(5, 7), (7, 9), (0, 1)], 10)
        sub, mapping = largest_connected_component(g)
        assert sorted(mapping.keys()) == [5, 7, 9]
        assert sorted(mapping.values()) == [0, 1, 2]
        assert sub.m == 2


def test_bfs_levels_fresh_sorted_and_unique():
    # layers of 20 nodes, each joined to every node of the next, under
    # shuffled ids: each fresh node is a candidate 19 or 20 times over
    width, depth = 20, 6
    layers = np.random.default_rng(7).permutation(width * depth).reshape(
        depth, width).tolist()
    g = build_graph([(a, b) for i in range(depth - 1)
                     for a in layers[i] for b in layers[i + 1]], width * depth)
    source = layers[0][0]
    expected = [layers[1], layers[0][1:] + layers[2], *layers[3:], []]
    dist = np.full(g.n, -1, dtype=np.int64)
    levels = [fresh for *_, fresh in bfs_levels(g, source, dist)]
    assert [f.tolist() for f in levels] == [sorted(e) for e in expected]
    assert all(np.all(f[1:] > f[:-1]) for f in levels)


def test_bfs_levels_yields_shortest_path_dag():
    # the source, then layers of 15 under shuffled ids: random edges between
    # adjacent layers give many equal-length paths, edges inside a layer
    # are not in the DAG, and every node has a neighbour one layer up
    rng = np.random.default_rng(11)
    width, depth = 15, 6
    ids = rng.permutation(1 + width * depth).tolist()
    layers = [ids[:1]] + [ids[1 + i * width:1 + (i + 1) * width]
                          for i in range(depth)]
    edges = set()
    for prev, layer in zip(layers, layers[1:]):
        for b in layer:
            edges.add((prev[int(rng.integers(len(prev)))], b))
            edges.update((a, b) for a in prev if rng.random() < 0.4)
            edges.update((b, c) for c in layer if b < c and rng.random() < 0.1)
    g = build_graph(list({(min(e), max(e)) for e in edges}), len(ids))
    dist = np.full(g.n, -1, dtype=np.int64)
    levels = list(bfs_levels(g, layers[0][0], dist))
    assert [sorted(f.tolist()) for *_, f in levels] == [
        sorted(layer) for layer in layers[1:]] + [[]]
    indeg = np.zeros(g.n, dtype=np.int64)
    for lev, (tails, heads, fresh) in enumerate(levels):
        assert np.all(dist[tails] == lev)
        assert np.all(dist[heads] == dist[tails] + 1)
        keys = tails * g.n + heads
        assert np.all(keys[1:] > keys[:-1])
        assert np.array_equal(fresh, np.unique(heads))
        indeg += np.bincount(heads, minlength=g.n)
    up = [int(np.sum(dist[g.neighbors(v)] == dist[v] - 1)) for v in range(g.n)]
    assert indeg.tolist() == up
    assert max(up) > 3


def test_is_connected():
    assert is_connected(path_graph(5))
    assert is_connected(build_graph([], 1))
    assert not is_connected(build_graph([(0, 1)], 3))


edge_sets = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .map(lambda e: (min(e), max(e)))
            .filter(lambda e: e[0] != e[1]),
            max_size=min(20, n * (n - 1) // 2),
        ),
    )
)


@given(edge_sets)
@settings(max_examples=150, deadline=None)
def test_roundtrip_and_handshake(case):
    n, edges = case
    g = build_graph(sorted(edges), n)
    # handshake lemma
    assert int(g.degrees.sum()) == 2 * g.m
    # neighbor rows sorted and duplicate-free
    for u in range(n):
        row = g.neighbors(u).tolist()
        assert row == sorted(set(row))
    # rebuilding from the emitted edge list reproduces adjacency and ids
    h = build_graph(g.edge_list(), n)
    assert np.array_equal(h.indptr, g.indptr)
    assert np.array_equal(h.adj, g.adj)
    assert np.array_equal(h.adj_eids, g.adj_eids)


@given(edge_sets, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_array_input_builds_the_same_graph(case, rnd):
    n, edges = case
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in sorted(edges)]
    rnd.shuffle(edges)
    g = build_graph(edges, n)
    h = build_graph(np.asarray(edges, dtype=np.int64).reshape(-1, 2), n)
    for f in ("indptr", "adj", "adj_eids", "edge_u", "edge_v", "degrees"):
        assert np.array_equal(getattr(g, f), getattr(h, f))
        assert getattr(h, f).dtype == np.int64
    assert (g.n, g.m) == (h.n, h.m)


@given(edge_sets)
@settings(max_examples=60, deadline=None)
def test_components_partition_nodes(case):
    n, edges = case
    g = build_graph(sorted(edges), n)
    comps = connected_components(g)
    seen = np.concatenate(comps) if comps else np.empty(0, dtype=int)
    assert sorted(seen.tolist()) == list(range(n))


class TestEdgeListFormat:
    def test_parse_basic(self):
        g = parse_edge_list("# comment\n0 1\n\n1 2\n")
        assert g.n == 3 and g.m == 2

    def test_parse_explicit_n(self):
        g = parse_edge_list("0 1\n", n=5)
        assert g.n == 5

    def test_parse_rejects_garbage(self):
        with pytest.raises(GraphError):
            parse_edge_list("0 1 2\n")
        with pytest.raises(GraphError):
            parse_edge_list("a b\n")
        with pytest.raises(GraphError):
            parse_edge_list("-1 0\n")

    def test_file_roundtrip(self, tmp_path):
        g = cycle_graph(6)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert h.edge_list() == g.edge_list()
        assert h.n == g.n
