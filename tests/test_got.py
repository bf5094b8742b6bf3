import hashlib

import numpy as np
import pytest

from centbench import (GotConfig, build_graph, default_epochs, gen_erdos_renyi,
                       run_got)
from centbench.got import _resolve_pickups
from centbench.rng import make_rng

from conftest import (cycle_graph, path_graph, random_connected_graph,
                      random_graph, star_graph, traced_peak)
from reference import epoch_step, initial_state


def run_via_epoch_steps(g, cfg):
    """Reference result: iterate the sequential epoch_step and average.

    Also returns the longest outbound trail, in edges, that any thief held
    at the end of an epoch."""
    tpn, vd, epochs = cfg.resolve(g.n)
    state = initial_state(g, cfg)
    rng = make_rng(cfg.seed)
    phi_sum = np.full(g.n, vd, dtype=np.int64)
    psi_sum = np.zeros(g.m, dtype=np.int64)
    longest = 0
    for _ in range(epochs):
        epoch_step(g, state, rng)
        phi_sum += state.vdiamonds_at_node
        psi_sum += state.edge_loaded_crossings
        longest = max(longest, *(len(t.path_stack) - 1 for t in state.thieves))
    denom = epochs if cfg.mean_convention == "per-epoch" else epochs + 1
    return phi_sum / denom, psi_sum / denom, longest


def reference_epoch_events(g, cfg):
    """Per epoch of the sequential reference: (refused pickups per node,
    deposits per node). A thief that starts the epoch empty-handed and ends
    it away from home, still empty-handed, was refused; one that starts it
    carrying and ends it empty-handed deposited at home."""
    _, _, epochs = cfg.resolve(g.n)
    state = initial_state(g, cfg)
    rng = make_rng(cfg.seed)
    events = []
    for _ in range(epochs):
        was_carrying = [t.carrying for t in state.thieves]
        epoch_step(g, state, rng)
        refused = np.zeros(g.n, dtype=np.int64)
        deposits = np.zeros(g.n, dtype=np.int64)
        for t, before in zip(state.thieves, was_carrying):
            if before and not t.carrying:
                deposits[t.home] += 1
            elif not before and not t.carrying and t.position != t.home:
                refused[t.position] += 1
        events.append((refused, deposits))
    return events


def hub_graph(n, p, rng):
    """A random graph plus one hub node joined to every other node."""
    edges = random_graph(n, p, rng).edge_list()
    return build_graph(edges + [(i, n) for i in range(n)], n + 1)


def naive_resolve(counts, carrying, att_ids, att_nodes, dep_ids, dep_nodes):
    """One epoch's deposits and attempts, one event at a time in id order."""
    events = sorted([(t, u, -1) for t, u in zip(att_ids, att_nodes)]
                    + [(t, u, 1) for t, u in zip(dep_ids, dep_nodes)])
    for tid, u, step in events:
        if step > 0:
            counts[u] += 1
        elif counts[u] > 0:
            counts[u] -= 1
            carrying[tid] = True


class TestTwoNodeHandSimulation:
    """One edge, one thief per node, two vdiamonds each, two epochs.

    Epoch 1: both thieves swap ends and pick up; epoch 2: both walk home
    loaded and deposit. Per-node stock snapshots are [2, 1, 2], loaded
    crossings per epoch are [0, 0, 2].
    """

    def test_scores(self):
        g = build_graph([(0, 1)], 2)
        cfg = GotConfig(thieves_per_node=1, vdiamonds_per_node=2, epochs=2,
                        seed=123)
        res = run_got(g, cfg, collect_trace=True)
        assert np.allclose(res.phi, [2.5, 2.5])
        assert np.allclose(res.psi, [1.0])
        held = [t.vdiamonds_held for t in res.trace]
        carrying = [t.thieves_carrying for t in res.trace]
        assert held == [4, 2, 4]
        assert carrying == [0, 2, 0]

    def test_epoch1_state(self):
        g = build_graph([(0, 1)], 2)
        cfg = GotConfig(vdiamonds_per_node=2, epochs=2, seed=123)
        state = initial_state(g, cfg)
        epoch_step(g, state, make_rng(cfg.seed))
        assert state.vdiamonds_at_node.tolist() == [1, 1]
        assert all(t.carrying for t in state.thieves)
        assert state.thieves[0].position == 1
        assert state.thieves[1].position == 0

    def test_arithmetic_mean_convention(self):
        g = build_graph([(0, 1)], 2)
        cfg = GotConfig(vdiamonds_per_node=2, epochs=2, seed=123,
                        mean_convention="arithmetic")
        res = run_got(g, cfg)
        assert np.allclose(res.phi, [5 / 3, 5 / 3])


class TestEpochStep:
    def test_carrying_thief_one_hop_from_home_deposits(self):
        g = build_graph([(0, 1)], 2)
        state = initial_state(g, GotConfig(vdiamonds_per_node=1, epochs=1))
        thief = state.thieves[0]
        thief.carrying = True
        thief.position = 1
        thief.path_stack = [0, 1]
        epoch_step(g, state, make_rng(0))
        assert not thief.carrying
        assert thief.position == 0
        assert thief.path_stack == [0]
        # thief 0 deposited at node 0, then thief 1 walked over and took one
        assert state.vdiamonds_at_node.tolist() == [1, 1]
        assert state.thieves[1].carrying

    def test_no_pickup_on_empty_node(self):
        g = build_graph([(0, 1)], 2)
        state = initial_state(g, GotConfig(vdiamonds_per_node=1, epochs=1))
        state.vdiamonds_at_node[:] = 0
        epoch_step(g, state, make_rng(0))
        assert not any(t.carrying for t in state.thieves)
        assert state.vdiamonds_at_node.tolist() == [0, 0]

    def test_no_pickup_at_own_home_and_trail_reset(self):
        # thief 1 wanders back onto its own stocked home: no pickup, and the
        # outbound trail restarts at the home node
        g = build_graph([(0, 1)], 2)
        cfg = GotConfig(thieves_per_node=1, vdiamonds_per_node=1, epochs=1)
        state = initial_state(g, cfg)
        state.vdiamonds_at_node[:] = [0, 2]
        state.thieves[1].position = 0
        state.thieves[1].path_stack = [1, 0]
        epoch_step(g, state, make_rng(0))
        # thief 0 took one vdiamond at node 1 first (id order)
        assert state.thieves[0].carrying
        # thief 1 arrived at its own home and left the remaining one alone
        assert not state.thieves[1].carrying
        assert state.thieves[1].path_stack == [1]
        assert state.vdiamonds_at_node.tolist() == [0, 1]

    def test_sequential_priority_within_epoch(self):
        # single vdiamond at the middle of a path; both end thieves arrive
        # in the same epoch; the lower id wins
        g = build_graph([(0, 1), (1, 2)], 3)
        cfg = GotConfig(vdiamonds_per_node=1, epochs=1)
        state = initial_state(g, cfg)
        state.vdiamonds_at_node[:] = [0, 1, 0]
        epoch_step(g, state, make_rng(7))
        assert state.thieves[0].carrying  # id 0 acts before id 2
        assert not state.thieves[2].carrying


class TestRunGot:
    def test_requires_connected(self):
        g = build_graph([(0, 1)], 3)
        with pytest.raises(ValueError, match="connected"):
            run_got(g, GotConfig(epochs=1))

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            run_got(build_graph([], 1), GotConfig(epochs=1))

    def test_stock_sums_must_fit_int64(self):
        # a node's stock sum over epochs 0..8 is at most 9 * n * vd
        g = cycle_graph(50)
        vd = np.iinfo(np.int64).max // (9 * g.n)
        res = run_got(g, GotConfig(vdiamonds_per_node=vd, epochs=8),
                      collect_trace=True)
        assert res.phi == pytest.approx(np.full(g.n, 9 * vd / 8), rel=1e-12)
        assert all(rec.vdiamonds_held + rec.thieves_carrying == g.n * vd
                   for rec in res.trace)
        for too_many in (vd + 1, 2**61):
            with pytest.raises(ValueError, match="^vdiamonds_per_node="):
                run_got(g, GotConfig(vdiamonds_per_node=too_many, epochs=8))

    def test_determinism(self, np_rng):
        g = random_connected_graph(20, 0.2, np_rng)
        cfg = GotConfig(vdiamonds_per_node=4, epochs=30, seed=555)
        a = run_got(g, cfg)
        b = run_got(g, cfg)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.psi, b.psi)
        c = run_got(g, GotConfig(vdiamonds_per_node=4, epochs=30, seed=556))
        assert not np.array_equal(a.phi, c.phi)

    def test_matches_sequential_reference(self, np_rng):
        for trial in range(12):
            n = int(np_rng.integers(2, 18))
            g = random_connected_graph(n, 0.35, np_rng)
            cfg = GotConfig(
                thieves_per_node=int(np_rng.integers(1, 4)),
                vdiamonds_per_node=int(np_rng.integers(1, 5)),
                epochs=int(np_rng.integers(1, 35)),
                seed=int(np_rng.integers(0, 2**32)),
            )
            res = run_got(g, cfg)
            phi_ref, psi_ref, _ = run_via_epoch_steps(g, cfg)
            assert np.array_equal(res.phi, phi_ref)
            assert np.array_equal(res.psi, psi_ref)

    def test_matches_sequential_reference_on_scarce_hubs(self, np_rng):
        # one vdiamond per node and several thieves per node: stock runs out
        # every epoch, and in most epochs some node that refuses a pickup
        # also takes deposits, so only the id interleaving decides who wins
        graphs = [star_graph(15), hub_graph(8, 0.3, np_rng),
                  hub_graph(12, 0.3, np_rng), hub_graph(16, 0.25, np_rng)]
        mixed_epochs = total_epochs = 0
        for i, g in enumerate(graphs):
            for tpn in (2, 3):
                cfg = GotConfig(thieves_per_node=tpn, vdiamonds_per_node=1,
                                epochs=48, seed=100 * i + tpn)
                res = run_got(g, cfg)
                phi_ref, psi_ref, _ = run_via_epoch_steps(g, cfg)
                assert np.array_equal(res.phi, phi_ref)
                assert np.array_equal(res.psi, psi_ref)
                mixed = sum(bool(((refused > 0) & (deposits > 0)).any())
                            for refused, deposits in
                            reference_epoch_events(g, cfg))
                assert mixed >= cfg.epochs // 3
                mixed_epochs += mixed
                total_epochs += cfg.epochs
        assert mixed_epochs > total_epochs // 2

    def test_matches_sequential_reference_through_trail_growth(self):
        # one vdiamond per node is drained within a few epochs, so walkers
        # wander far from home: the reference's trails pass 32 edges, and
        # run_got's depth-major trail, one row deep at the start, doubles
        # six times, copying the old rows into the front of the grown array
        for g in (path_graph(40), cycle_graph(40)):
            for tpn in (1, 2):
                cfg = GotConfig(thieves_per_node=tpn, vdiamonds_per_node=1,
                                epochs=300, seed=1)
                res = run_got(g, cfg)
                phi_ref, psi_ref, longest = run_via_epoch_steps(g, cfg)
                assert longest > 32
                assert np.array_equal(res.phi, phi_ref)
                assert np.array_equal(res.psi, psi_ref)

    def test_matches_sequential_reference_past_uint16_edge_ids(self):
        # 71,909 edges need a uint32 trail: a uint16 one would wrap the edge
        # ids past 65,535 and credit their crossings to other edges
        g = gen_erdos_renyi(1200, 0.1, seed=1)
        cfg = GotConfig(vdiamonds_per_node=1, epochs=40, seed=2)
        res = run_got(g, cfg)
        phi_ref, psi_ref, _ = run_via_epoch_steps(g, cfg)
        assert g.m > 1 << 16 and psi_ref[1 << 16:].any()
        assert np.array_equal(res.phi, phi_ref)
        assert np.array_equal(res.psi, psi_ref)

    def test_refused_pickups_match_reference(self, np_rng):
        cases = [(star_graph(10), GotConfig(thieves_per_node=2,
                                            vdiamonds_per_node=1, epochs=40,
                                            seed=4)),
                 (hub_graph(15, 0.2, np_rng),
                  GotConfig(thieves_per_node=3, vdiamonds_per_node=2,
                            epochs=40, seed=5)),
                 (random_connected_graph(20, 0.2, np_rng),
                  GotConfig(vdiamonds_per_node=1, epochs=40, seed=6))]
        for g, cfg in cases:
            trace = run_got(g, cfg, collect_trace=True).trace
            want = [int(refused.sum())
                    for refused, _ in reference_epoch_events(g, cfg)]
            assert trace[0].pickups_refused == 0
            assert [t.pickups_refused for t in trace[1:]] == want
            assert sum(want) > 0

    def test_no_refused_pickups_with_default_stock(self, np_rng):
        # on these low-degree graphs n vdiamonds per node outlast the run;
        # a hub's stock need not (a star's centre loses one per leaf every
        # other epoch), and then refusals are real
        for g in (cycle_graph(10), cycle_graph(40),
                  random_connected_graph(60, 0.08, np_rng)):
            for seed in range(3):
                trace = run_got(g, GotConfig(seed=seed),
                                collect_trace=True).trace
                assert all(t.pickups_refused == 0 for t in trace)

    def test_conservation_every_epoch(self, np_rng):
        for trial in range(8):
            g = random_connected_graph(int(np_rng.integers(2, 25)), 0.3, np_rng)
            vd = int(np_rng.integers(1, 6))
            tpn = int(np_rng.integers(1, 3))
            cfg = GotConfig(thieves_per_node=tpn, vdiamonds_per_node=vd,
                            epochs=25, seed=trial)
            res = run_got(g, cfg, collect_trace=True)
            assert len(res.trace) == 26
            for rec in res.trace:
                assert rec.vdiamonds_held + rec.thieves_carrying == g.n * vd

    def test_score_bounds(self, np_rng):
        g = random_connected_graph(15, 0.3, np_rng)
        cfg = GotConfig(vdiamonds_per_node=2, epochs=20, seed=3)
        res = run_got(g, cfg)
        assert np.all(res.phi >= 0)
        assert np.all(res.psi >= 0)
        thieves_total = g.n
        assert np.all(res.psi <= thieves_total * (20 + 1) / 20)

    def test_star_center_depletes_fastest(self):
        g = star_graph(10)
        rank_sum = np.zeros(g.n)
        for seed in range(10):
            res = run_got(g, GotConfig(seed=seed))
            order = np.argsort(np.argsort(res.phi))
            rank_sum += order
        assert np.argmin(rank_sum) == 0

    def test_cycle_symmetry(self):
        # vertex-transitive graph: per-node mean stock within 5% of global
        g = cycle_graph(10)
        acc = np.zeros(g.n)
        seeds = range(50)
        for seed in seeds:
            acc += run_got(g, GotConfig(seed=seed)).phi
        means = acc / len(list(seeds))
        global_mean = means.mean()
        assert np.all(np.abs(means - global_mean) <= 0.05 * global_mean)

    def test_retrace_returns_home_in_stack_length_epochs(self, np_rng):
        g = random_connected_graph(12, 0.3, np_rng)
        cfg = GotConfig(vdiamonds_per_node=1, epochs=1, seed=9)
        state = initial_state(g, cfg)
        rng = make_rng(cfg.seed)
        edges = set(g.edge_list())
        for _ in range(15):
            epoch_step(g, state, rng)
            for t in state.thieves:
                assert t.path_stack[0] == t.home
                assert t.path_stack[-1] == t.position
                if t.carrying:
                    # retracing: every consecutive stack pair is an edge
                    for a, b in zip(t.path_stack, t.path_stack[1:]):
                        assert (min(a, b), max(a, b)) in edges


def check_against_naive(counts, nt, att_ids, att_nodes, dep_ids, dep_nodes):
    """Resolve one epoch both ways, updating ``counts`` in place, and return
    the thieves left carrying and, for the start stock, the number of
    (contended nodes, uncontended nodes that take attempts, contended nodes
    that take deposits, contended nodes that are empty and take no
    deposit). A node is contended when its stock is below its attempts;
    the last kind refuses every attempt, whatever the order."""
    n = counts.size
    attempts = np.bincount(att_nodes, minlength=n)
    deposits = np.bincount(dep_nodes, minlength=n)
    contended = counts < attempts
    shape = (int(contended.sum()),
             int(((attempts > 0) & ~contended).sum()),
             int((contended & (deposits > 0)).sum()),
             int((contended & (counts == 0) & (deposits == 0)).sum()))
    carrying = np.zeros(nt, dtype=bool)
    want_counts, want_carrying = counts.copy(), carrying.copy()
    naive_resolve(want_counts, want_carrying, att_ids, att_nodes, dep_ids,
                  dep_nodes)
    _resolve_pickups(counts, carrying, att_ids, att_nodes, dep_ids, dep_nodes,
                     n)
    assert counts.tolist() == want_counts.tolist()
    assert carrying.tolist() == want_carrying.tolist()
    return carrying, shape


class TestCriterion6Graph:
    """run_got at n=10^4, where the sequential reference is too slow and
    where nodes with and without contention share most epochs."""

    # sha256 of phi and psi (float64, little-endian bytes) and of the trace
    # as an int64 (epochs + 1, 4) array, for GotConfig(seed=607) with the
    # given vdiamonds_per_node. Recorded with the kernel that sorted every
    # event of an epoch once any node ran short, before contended nodes were
    # split out and the trail was stored flat, then depth-major; this one
    # must reproduce them.
    DIGESTS = {
        None: ("eb20e1971289bb57b65c244ad82cec6a7c06226faf240fa1112d7b168614685f",
               "8336e5bd8f1081dcaccea8af633d76e033be16cf97828e97db213ade55a7ba50",
               "0e617d676c6b89310583a7367242572809003c6157a39d8714dbbfb8706062ce"),
        1: ("523ff678790e71354b51ee2c622fe237923cf21032c8b3789b99ef4dbd7bab7d",
            "553ddea6404d15a7ffab52b39be9e18789b31534c2352491193492efe126f0dc",
            "4870ea155e8eccdd7f8d50b49a9c1d4fd4993a6b06d39d07df9181d5dcd14118"),
    }

    @pytest.mark.parametrize("vd", [None, 1], ids=["default", "vd1"])
    def test_outputs_match_recorded_digests(self, criterion6_graph, vd):
        res = run_got(criterion6_graph,
                      GotConfig(vdiamonds_per_node=vd, seed=607),
                      collect_trace=True)
        trace = np.asarray(res.trace, dtype=np.int64)
        # pickups are refused in 183 of 782 epochs at default stock, and in
        # every epoch at one vdiamond per node
        assert (trace[1:, 3] > 0).sum() == (183 if vd is None else 782)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                        for a in (res.phi, res.psi, trace))
        assert digests == self.DIGESTS[vd]

    # tracemalloc peaks measured 1.88 MB and 3.12 MB; the bounds leave about
    # 25% headroom. At one vdiamond per node the trail grows to 64 rows of
    # one uint16 edge id per thief, and the peak is its last growth, when
    # the old 32 rows are copied into the front of the new array. An int64
    # trail peaks at 3.09 and 8.88 MB, above both bounds, and growing one
    # with a zero-filled temporary alongside at 12.0 MB
    @pytest.mark.parametrize("vd, bound", [(None, 2.4e6), (1, 3.9e6)],
                             ids=["default", "vd1"])
    def test_memory_bounded(self, criterion6_graph, vd, bound):
        _, peak = traced_peak(run_got, criterion6_graph,
                              GotConfig(vdiamonds_per_node=vd, seed=607))
        assert peak < bound, f"peak {peak / 1e6:.1f} MB"


class TestResolvePickups:
    def test_matches_naive_id_ordered_loop(self, np_rng):
        # few nodes and many thieves, so nodes see several deposits
        # interleaved with several attempts; start stock includes zeros.
        # Only contended nodes (stock below their attempts) that hold stock
        # or take deposits are replayed in id order; count the calls that
        # split, those where a contended node's deposits interleave with its
        # attempts, and those where an empty contended node with no deposit
        # is settled beside a replayed node and an uncontended one
        split = mixed = settled = 0
        for trial in range(300):
            n = int(np_rng.integers(1, 6))
            nt = int(np_rng.integers(2, 40))
            counts = np_rng.integers(0, 4, size=n).astype(np.int64)
            role = np_rng.integers(0, 3, size=nt)   # 0 idle, 1 attempt, 2 deposit
            att_ids = np.flatnonzero(role == 1).astype(np.int64)
            dep_ids = np.flatnonzero(role == 2).astype(np.int64)
            att_nodes = np_rng.integers(0, n, size=att_ids.size).astype(np.int64)
            dep_nodes = np_rng.integers(0, n, size=dep_ids.size).astype(np.int64)
            _, (hot, cold, hot_dep, empty) = check_against_naive(
                counts, nt, att_ids, att_nodes, dep_ids, dep_nodes)
            split += hot > 0 and cold > 0
            mixed += hot_dep > 0
            settled += empty > 0 and hot > empty and cold > 0
        assert split >= 75 and mixed >= 150, (split, mixed)
        assert settled >= 5, settled    # 7 of the 300 calls

    def test_contended_and_uncontended_nodes_in_one_call(self):
        # node 0 (stock 1, attempts 1, 4, 6, deposit 5): 1 takes the stock,
        # 4 finds it empty, 5 refills it for 6. Node 1 (stock 2, attempts 2
        # and 3, deposit 0) covers its attempts. Node 2 (stock 0) refuses 7
        # before 8 deposits.
        counts = np.int64([1, 2, 0])
        carrying, shape = check_against_naive(
            counts, 9, np.int64([1, 2, 3, 4, 6, 7]), np.int64([0, 1, 1, 0, 0, 2]),
            np.int64([0, 5, 8]), np.int64([1, 0, 2]))
        assert shape == (2, 1, 2, 0)
        assert counts.tolist() == [0, 1, 1]
        assert np.flatnonzero(carrying).tolist() == [1, 2, 3, 6]

    def test_empty_node_without_deposits_beside_replayed_node(self):
        # node 0 (stock 1, attempts 1 and 3, deposit 5): 1 takes the stock,
        # 3 finds it empty, 5 refills it. Node 1 (stock 2, attempt 2) covers
        # its attempt. Node 2 (stock 0, attempts 0, 4 and 6, no deposit)
        # refuses all three, whatever the order.
        counts = np.int64([1, 2, 0])
        carrying, shape = check_against_naive(
            counts, 7, np.int64([0, 1, 2, 3, 4, 6]), np.int64([2, 0, 1, 0, 2, 2]),
            np.int64([5]), np.int64([0]))
        assert shape == (2, 1, 1, 1)
        assert counts.tolist() == [1, 1, 0]
        assert np.flatnonzero(carrying).tolist() == [1, 2]


class TestConfig:
    def test_default_epochs_bases(self):
        assert default_epochs(1000) == 330          # ceil(ln(1000)^3)
        assert default_epochs(2) == 1

    def test_resolve_defaults_to_network_size(self):
        cfg = GotConfig()
        tpn, vd, epochs = cfg.resolve(50)
        assert (tpn, vd) == (1, 50)
        assert epochs == default_epochs(50)

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            GotConfig(epochs=0).resolve(10)
        with pytest.raises(ValueError):
            GotConfig(thieves_per_node=0).resolve(10)
        with pytest.raises(ValueError):
            GotConfig(mean_convention="median").resolve(10)

    @pytest.mark.parametrize("kwargs, message", [
        ({"epochs": 0}, "epochs must be at least 1, got 0"),
        ({"thieves_per_node": 0}, "thieves_per_node must be at least 1, got 0"),
        ({"vdiamonds_per_node": -1},
         "vdiamonds_per_node must be at least 1, got -1"),
        ({"mean_convention": "median"}, "mean_convention must be one of "
         "('per-epoch', 'arithmetic'), got 'median'"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ])
    def test_invalid_fields_rejected_when_built(self, kwargs, message):
        # no graph is needed to see these, so they fail before any run
        with pytest.raises(ValueError) as err:
            GotConfig(**kwargs)
        assert str(err.value) == message

    def test_log_base_is_not_a_field(self):
        # the epoch default is ceil(ln(n)^3) alone; an old caller fails loudly
        with pytest.raises(TypeError, match="log_base"):
            GotConfig(log_base="2")
