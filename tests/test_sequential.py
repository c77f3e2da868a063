"""Sequential Infomap (Algorithm 1): quality, convergence, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FlowNetwork,
    InfomapConfig,
    ModuleStats,
    SequentialInfomap,
    best_move,
    sequential_infomap,
)
from repro.graph import (
    grid2d,
    planted_partition,
    powerlaw_planted_partition,
    ring_of_cliques,
    star,
)
from repro.metrics import nmi


class TestQuality:
    def test_recovers_ring_of_cliques_exactly(self):
        lg = ring_of_cliques(8, 6)
        res = SequentialInfomap().run(lg.graph)
        assert res.num_modules == 8
        assert nmi(res.membership, lg.labels) == pytest.approx(1.0)

    def test_recovers_planted_partition(self):
        lg = planted_partition(6, 30, 0.4, 0.01, seed=1)
        res = sequential_infomap(lg.graph)
        assert nmi(res.membership, lg.labels) > 0.95

    def test_lfr_reasonable_quality(self):
        lg = powerlaw_planted_partition(1500, 15, mu=0.2, seed=2)
        res = sequential_infomap(lg.graph)
        assert nmi(res.membership, lg.labels) > 0.7

    def test_star_collapses_to_one_module(self):
        res = sequential_infomap(star(20))
        assert res.num_modules == 1


class TestInvariants:
    def test_codelength_matches_final_membership(self):
        lg = powerlaw_planted_partition(600, 10, seed=3)
        res = sequential_infomap(lg.graph)
        net = FlowNetwork.from_graph(lg.graph)
        recomputed = ModuleStats.from_membership(net, res.membership)
        assert recomputed.codelength() == pytest.approx(res.codelength)

    def test_trajectory_non_increasing(self):
        lg = powerlaw_planted_partition(800, 10, seed=4)
        res = sequential_infomap(lg.graph)
        traj = res.codelength_trajectory()
        assert all(a >= b - 1e-9 for a, b in zip(traj, traj[1:]))

    def test_level_records_consistent(self):
        lg = ring_of_cliques(6, 5)
        res = sequential_infomap(lg.graph)
        assert res.levels[0].num_vertices == 30
        for rec in res.levels:
            assert 0.0 <= rec.merge_rate <= 1.0
            assert rec.num_modules <= rec.num_vertices
        # Consecutive levels chain: next level's n == this level's k.
        for a, b in zip(res.levels, res.levels[1:]):
            assert b.num_vertices == a.num_modules

    def test_membership_compact(self):
        res = sequential_infomap(ring_of_cliques(4, 4).graph)
        mods = np.unique(res.membership)
        np.testing.assert_array_equal(mods, np.arange(mods.size))

    def test_deterministic_given_seed(self):
        lg = powerlaw_planted_partition(400, 8, seed=5)
        a = sequential_infomap(lg.graph, InfomapConfig(seed=9))
        b = sequential_infomap(lg.graph, InfomapConfig(seed=9))
        np.testing.assert_array_equal(a.membership, b.membership)
        assert a.codelength == b.codelength

    def test_no_shuffle_deterministic_order(self):
        lg = ring_of_cliques(5, 4)
        a = sequential_infomap(lg.graph, InfomapConfig(shuffle=False))
        b = sequential_infomap(lg.graph, InfomapConfig(shuffle=False, seed=1))
        np.testing.assert_array_equal(a.membership, b.membership)

    def test_max_levels_respected(self):
        lg = powerlaw_planted_partition(500, 8, seed=6)
        res = sequential_infomap(lg.graph, InfomapConfig(max_levels=1))
        assert len(res.levels) == 1

    def test_grid_runs_without_structure(self):
        res = sequential_infomap(grid2d(12, 12))
        assert res.converged
        assert 1 <= res.num_modules <= 144


class TestBestMove:
    def test_stays_when_alone_is_best(self):
        # Path graph end vertex: joining its neighbour is good though.
        lg = ring_of_cliques(3, 5)
        net = FlowNetwork.from_graph(lg.graph)
        membership = lg.labels.astype(np.int64).copy()
        stats = ModuleStats.from_membership(net, membership)
        # Vertices already in their optimal cliques: no move improves.
        for u in range(lg.graph.num_vertices):
            prop = best_move(net, membership, stats, u)
            assert not prop.is_move

    def test_singleton_joins_clique(self):
        lg = ring_of_cliques(3, 5)
        net = FlowNetwork.from_graph(lg.graph)
        membership = lg.labels.astype(np.int64).copy()
        membership[0] = 99  # rip vertex 0 out
        stats = ModuleStats.from_membership(net, membership)
        prop = best_move(net, membership, stats, 0)
        assert prop.is_move
        assert prop.target == lg.labels[0]
        assert prop.delta < 0


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2000),
    k=st.integers(3, 6),
    size=st.integers(4, 7),
)
def test_property_sequential_always_converges(seed, k, size):
    # k >= 3 and size >= 4 keep the bridge fraction low enough that the
    # per-clique partition is the true MDL optimum (with 2-3 cliques of
    # 3 vertices the all-in-one partition legitimately codes shorter).
    lg = ring_of_cliques(k, size)
    res = sequential_infomap(lg.graph, InfomapConfig(seed=seed))
    assert res.converged
    assert res.membership.size == lg.graph.num_vertices
    # Clique recovery on this easy family should be exact.
    assert nmi(res.membership, lg.labels) == pytest.approx(1.0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2000), mu=st.floats(0.05, 0.4))
def test_property_codelength_bounded_by_entropy(seed, mu):
    """L(final) <= L(one module) == node-visit entropy."""
    from repro.core import plogp

    lg = powerlaw_planted_partition(300, 6, mu=mu, seed=seed)
    net = FlowNetwork.from_graph(lg.graph)
    res = sequential_infomap(lg.graph, InfomapConfig(seed=seed))
    entropy = -float(plogp(net.node_flow).sum())
    assert res.codelength <= entropy + 1e-9
