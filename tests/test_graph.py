import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centbench import (DisconnectedGraphError, Graph, GraphError, build_graph,
                       closeness_centrality, gen_erdos_renyi, gen_holme_kim,
                       is_connected, largest_connected_component,
                       parse_edge_list, read_edge_list, write_edge_list)
from centbench.graph import component_labels

from conftest import cycle_graph, path_graph
from reference import lexsort_csr, oracle_components


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
    ([(0, 1), (1, 1)], 0, r"^edge \(0, 1\) outside node range 0\.\.-1$"),
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
    # every node is its own component, labelled by its own id
    assert component_labels(g).tolist() == [0, 1, 2, 3]
    assert component_labels(build_graph([], 0)).tolist() == []


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

    @pytest.mark.parametrize("make", [
        lambda: path_graph(1), lambda: cycle_graph(7),
        lambda: gen_holme_kim(2000, 3, 0.5, seed=2),
        lambda: gen_erdos_renyi(300, 0.05, seed=1)])
    def test_connected_graph_comes_back_whole(self, make):
        g = make()
        assert is_connected(g)
        sub, mapping = largest_connected_component(g)
        for f in ("indptr", "adj", "adj_eids", "edge_u", "edge_v", "degrees"):
            assert np.array_equal(getattr(sub, f), getattr(g, f))
        assert (sub.n, sub.m) == (g.n, g.m)
        assert list(mapping.items()) == [(i, i) for i in range(g.n)]

    @pytest.mark.parametrize("make", [
        lambda: gen_erdos_renyi(2000, 8e-4, seed=3),
        lambda: gen_erdos_renyi(300, 0.004, seed=5),
        lambda: build_graph([(5, 7), (9, 7), (0, 1), (3, 9), (2, 4)], 12)])
    def test_disconnected_graph_matches_rebuilt_subgraph(self, make):
        g = make()
        assert not is_connected(g)
        sub, mapping = largest_connected_component(g)
        kept = [(mapping[u], mapping[v]) for u, v in g.edge_list() if u in mapping]
        want = build_graph(kept, len(mapping))
        for f in ("indptr", "adj", "adj_eids", "edge_u", "edge_v", "degrees"):
            assert np.array_equal(getattr(sub, f), getattr(want, f))
            assert getattr(sub, f).dtype == np.int64
        assert (sub.n, sub.m) == (want.n, want.m)

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


def several_bad_edges(rnd, n, edges):
    """Bad edges to add to ``edges`` at once: more copies of one pair (three
    or more in all, the pair's two rows neighbours when it is ``(u, u+1)``),
    loops and out-of-range ids, many of them at node 0, where build_graph
    puts out-of-range edges."""
    bad = []
    for _ in range(int(rnd.integers(2, 6))):
        kind = int(rnd.integers(4))
        if kind == 0 and edges:
            a, b = edges[int(rnd.integers(len(edges)))]
            bad += [(a, b), (b, a)]
        elif kind == 1 and n >= 2:
            u = int(rnd.integers(n - 1))
            bad += [(u, u + 1), (u + 1, u)]
        elif kind == 2:
            x = int(rnd.integers(n)) if rnd.random() < 0.5 else 0
            bad.append((x, x))
        else:
            x = int(rnd.choice([-1, n, n + 2]))
            y = 0 if rnd.random() < 0.5 else int(rnd.integers(n))
            bad.append((x, y) if rnd.random() < 0.5 else (y, x))
    return bad


@pytest.mark.parametrize("seed", range(6))
def test_csr_matches_lexsort_reference(seed):
    rnd = np.random.default_rng(seed)
    for _ in range(150):
        n = int(rnd.integers(1, 60))
        edges = [tuple(int(x) for x in rnd.integers(0, n, size=2))
                 for _ in range(int(rnd.integers(0, 3 * n)))]
        if rnd.random() < 0.6:  # mostly valid: drop loops and repeats
            edges = list({(min(e), max(e)): e for e in edges if e[0] != e[1]}.values())
            rnd.shuffle(edges)
        if rnd.random() < 0.2:
            edges.insert(int(rnd.integers(len(edges) + 1)),
                         (int(rnd.integers(-2, n + 3)), int(rnd.integers(n + 3))))
        if rnd.random() < 0.3:
            for e in several_bad_edges(rnd, n, edges):
                edges.insert(int(rnd.integers(len(edges) + 1)), e)
        expected = lexsort_csr(edges, n)
        if isinstance(expected, str):
            with pytest.raises(GraphError, match=f"^{re.escape(expected)}$"):
                build_graph(edges, n)
            continue
        g = build_graph(edges, n)
        for got, want in zip((g.indptr, g.adj, g.adj_eids), expected):
            assert got.dtype == np.int64 and np.array_equal(got, want)


def check_components(g):
    """Component labels, connectivity, the LCC and the closeness check
    against ``oracle_components``: each node's label is the smallest id in
    its component."""
    expected = oracle_components(g)
    labels = component_labels(g)
    smallest = {v: comp[0] for comp in expected for v in comp}
    assert labels.dtype == np.int64
    assert labels.tolist() == [smallest[v] for v in range(g.n)]
    assert is_connected(g) == (len(expected) <= 1)
    best = max(expected, key=len)  # the first of equal sizes
    sub, mapping = largest_connected_component(g)
    assert list(mapping) == best and list(mapping.values()) == list(range(len(best)))
    assert sub.edge_list() == [(mapping[u], mapping[v]) for u, v in g.edge_list()
                               if u in mapping]
    if g.n >= 2 and len(expected) > 1:
        with pytest.raises(DisconnectedGraphError,
                           match=rf"^node {expected[1][0]} is unreachable from node 0$"):
            closeness_centrality(g)


@given(edge_sets)
@settings(max_examples=60, deadline=None)
def test_components_partition_nodes(case):
    n, edges = case
    check_components(build_graph(sorted(edges), n))


def shuffled(edges, n, seed):
    """The graph under a random relabelling of its node ids."""
    ids = np.random.default_rng(seed).permutation(n)
    return build_graph(ids[np.asarray(edges, dtype=np.int64).reshape(-1, 2)], n)


@pytest.mark.parametrize("make", [
    # shuffled ids: labels spread without hooking take tens of thousands of rounds
    lambda: shuffled([(i, i + 1) for i in range(10**5 - 1)], 10**5, seed=5),
    lambda: gen_erdos_renyi(10**4, 1.5e-4, seed=3),  # 2,827 components
    lambda: build_graph([(i, 50) for i in range(50)], 51),  # hub has the top id
    # two equal largest components and a smaller one: the tie goes to the
    # component holding the smallest id
    lambda: shuffled([(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)], 9, seed=8),
    lambda: shuffled([(i, i + 1) for i in range(7)] + [(i, i + 1) for i in range(8, 15)],
                     16, seed=9),
], ids=["shuffled_path_1e5", "er_fragmented_1e4", "star_top_hub",
        "lcc_tie_small", "lcc_tie_paths"])
def test_components_match_oracle(make):
    check_components(make())


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
