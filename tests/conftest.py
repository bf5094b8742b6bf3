import numpy as np
import pytest

from centbench import build_graph, gen_holme_kim


def path_graph(n):
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def cycle_graph(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def star_graph(leaves):
    return build_graph([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def complete_graph(n):
    return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)


def random_graph(n, p, rng):
    """Plain Bernoulli sampler, independent of the package generators."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return build_graph(edges, n)


def layered_graph():
    """The source, then 6 layers of 15 under shuffled ids, and its layers.

    Random edges between adjacent layers give many equal-length paths,
    edges inside a layer lie on no shortest path from the source, and every
    node has a neighbour one layer up, so layer i is exactly the nodes at
    distance i from the source.
    """
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
    return g, layers


def random_connected_graph(n, p, rng, max_tries=200):
    from centbench import is_connected
    for _ in range(max_tries):
        g = random_graph(n, p, rng)
        if is_connected(g) and g.m >= 1:
            return g
    raise RuntimeError("could not sample a connected graph")


def per_slot_for(walks, g):
    """The fewest k-path walks per adjacency slot that give ``g`` at least
    ``walks`` walks in all."""
    return -(-walks // (2 * g.m))


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240808)


@pytest.fixture(scope="session")
def criterion6_graph():
    """The Holme-Kim graph of acceptance criterion 6, n=10^4, made once."""
    return gen_holme_kim(10000, 5, 0.3, seed=606)
