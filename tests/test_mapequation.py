"""Map-equation correctness: codelength, ΔL, incremental updates.

These are the load-bearing tests of the repository — everything else
(sequential, distributed, delegate consensus) reduces to this math.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FlowNetwork,
    ModuleStats,
    codelength_terms,
    delta_codelength,
    delta_from_values,
    plogp,
)
from repro.core.mapequation import RunPlan
from repro.graph import (
    complete_graph,
    from_edges,
    powerlaw_planted_partition,
    ring_of_cliques,
)


class TestPlogp:
    def test_zero_convention(self):
        assert plogp(0.0) == 0.0

    def test_scalar(self):
        assert plogp(0.5) == pytest.approx(-0.5)
        assert plogp(1.0) == 0.0
        assert plogp(2.0) == pytest.approx(2.0)

    def test_array(self):
        out = plogp(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(out, [0.0, -0.5, 0.0])

    def test_negative_dust_clamped(self):
        assert plogp(-1e-18) == 0.0


class TestCodelength:
    def test_two_cliques_hand_computed(self):
        """Two 3-cliques joined by one bridge, clustered by clique.

        Hand computation: W = 7; each bridge endpoint module has
        q = 1/14, p = 7/14 (clique degrees 2,2,3).
        """
        g = from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        net = FlowNetwork.from_graph(g)
        stats = ModuleStats.from_membership(
            net, np.array([0, 0, 0, 1, 1, 1])
        )
        q = 1.0 / 14.0
        pm = 7.0 / 14.0
        node_flows = np.array([2, 2, 3, 3, 2, 2]) / 14.0
        expected = (
            plogp(2 * q)
            - 2 * (2 * plogp(q))
            - plogp(node_flows).sum()
            + 2 * plogp(q + pm)
        )
        assert stats.codelength() == pytest.approx(float(expected))

    def test_singletons_vs_all_in_one(self):
        """All-in-one module: L = entropy of node visits (q = 0)."""
        g = complete_graph(6)
        net = FlowNetwork.from_graph(g)
        one = ModuleStats.from_membership(net, np.zeros(6, dtype=np.int64))
        node_entropy = -float(plogp(net.node_flow).sum())
        assert one.codelength() == pytest.approx(node_entropy)
        # Singleton partition of a complete graph costs more.
        singles = ModuleStats.from_membership(net, np.arange(6))
        assert singles.codelength() > one.codelength()

    def test_terms_sum_to_codelength(self):
        lg = ring_of_cliques(5, 4)
        net = FlowNetwork.from_graph(lg.graph)
        stats = ModuleStats.from_membership(net, lg.labels)
        terms = codelength_terms(stats)
        assert sum(terms.values()) == pytest.approx(stats.codelength())

    def test_good_partition_beats_bad(self):
        lg = ring_of_cliques(6, 5)
        net = FlowNetwork.from_graph(lg.graph)
        good = ModuleStats.from_membership(net, lg.labels)
        rng = np.random.default_rng(0)
        bad = ModuleStats.from_membership(
            net, rng.permutation(lg.labels)
        )
        assert good.codelength() < bad.codelength()

    def test_module_accessors(self):
        lg = ring_of_cliques(3, 4)
        net = FlowNetwork.from_graph(lg.graph)
        stats = ModuleStats.from_membership(net, lg.labels)
        assert stats.num_modules == 3
        np.testing.assert_array_equal(stats.module_ids(), [0, 1, 2])
        assert stats.sum_p.sum() == pytest.approx(1.0)

    def test_membership_shape_check(self):
        net = FlowNetwork.from_graph(complete_graph(4))
        with pytest.raises(ValueError):
            ModuleStats.from_membership(net, np.zeros(3, dtype=np.int64))


class TestDelta:
    @pytest.fixture
    def setup(self):
        lg = powerlaw_planted_partition(200, 6, mu=0.2, seed=1)
        net = FlowNetwork.from_graph(lg.graph)
        membership = lg.labels.astype(np.int64).copy()
        stats = ModuleStats.from_membership(net, membership)
        return lg.graph, net, membership, stats

    def _move_args(self, net, membership, u, target):
        from repro.core import neighbor_module_flows

        mods, flows, x_u = neighbor_module_flows(net, membership, u)
        cur = int(membership[u])
        d_of = dict(zip(mods.tolist(), flows.tolist()))
        return {
            "p_u": float(net.node_flow[u]),
            "x_u": x_u,
            "d_old": d_of.get(cur, 0.0),
            "d_new": d_of.get(target, 0.0),
        }

    def test_delta_matches_recompute(self, setup):
        g, net, membership, stats = setup
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = int(rng.integers(g.num_vertices))
            cur = int(membership[u])
            target = int(rng.integers(membership.max() + 1))
            if target == cur:
                continue
            args = self._move_args(net, membership, u, target)
            predicted = delta_codelength(
                stats, old=cur, new=target, **args
            )
            trial = membership.copy()
            trial[u] = target
            actual = (
                ModuleStats.from_membership(net, trial).codelength()
                - stats.codelength()
            )
            assert predicted == pytest.approx(actual, abs=1e-10)

    def test_apply_move_matches_delta(self, setup):
        g, net, membership, stats = setup
        rng = np.random.default_rng(3)
        l_run = stats.codelength()
        for _ in range(100):
            u = int(rng.integers(g.num_vertices))
            cur = int(membership[u])
            target = int(rng.integers(membership.max() + 1))
            if target == cur:
                continue
            args = self._move_args(net, membership, u, target)
            d = delta_codelength(stats, old=cur, new=target, **args)
            stats.apply_move(old=cur, new=target, **args)
            membership[u] = target
            l_run += d
            assert stats.codelength() == pytest.approx(l_run, abs=1e-9)
        # Final state still matches a from-scratch recompute.
        fresh = ModuleStats.from_membership(net, membership)
        assert fresh.codelength() == pytest.approx(stats.codelength(),
                                                   abs=1e-9)
        np.testing.assert_allclose(fresh.exit, stats.exit, atol=1e-12)
        np.testing.assert_allclose(fresh.sum_p, stats.sum_p, atol=1e-12)

    def test_vectorized_candidates_match_scalar(self, setup):
        g, net, membership, stats = setup
        u = 5
        cur = int(membership[u])
        targets = np.array(
            [m for m in range(int(membership.max()) + 1) if m != cur]
        )
        args = self._move_args(net, membership, u, int(targets[0]))
        d_news = np.array(
            [
                self._move_args(net, membership, u, int(t))["d_new"]
                for t in targets
            ]
        )
        vec = delta_codelength(
            stats, old=cur, new=targets,
            p_u=args["p_u"], x_u=args["x_u"], d_old=args["d_old"],
            d_new=d_news,
        )
        for i, t in enumerate(targets):
            a = self._move_args(net, membership, u, int(t))
            scalar = delta_codelength(stats, old=cur, new=int(t), **a)
            assert vec[i] == pytest.approx(scalar)

    def test_apply_plan_matches_apply_move(self, setup):
        # Moves with pairwise distinct modules, some emptying a singleton
        # module (the clamp) and some leaving a larger one, committed
        # as one plan and one at a time: bitwise the same stats.
        g, net, membership, stats = setup
        n = g.num_vertices
        memb = membership.copy()
        memb[:20] = n - 1 - np.arange(20)  # 20 singleton modules
        base = ModuleStats.from_membership(net, memb)
        other = next(u for u in range(20, n) if memb[u] != memb[30])
        movers = [0, 1, 2, 3, 30, other]
        olds = [int(memb[u]) for u in movers]
        news = [n - 11, n - 12, n - 13, n - 14, n - 15, n - 16]
        assert len(set(olds + news)) == 2 * len(movers)
        args = [self._move_args(net, memb, u, t) for u, t in zip(movers, news)]
        one = base.copy()
        for o, t, a in zip(olds, news, args):
            one.apply_move(old=o, new=t, **a)
        col = {k: np.array([a[k] for a in args]) for k in args[0]}
        old, new = np.array(olds), np.array(news)
        plan = RunPlan(
            np.array(movers), old, new,
            q_old=base.exit[old], p_old=base.sum_p[old],
            n_old=base.members[old], q_new=base.exit[new],
            p_new=base.sum_p[new], n_new=base.members[new],
            clamp=True, **col,
        )
        bulk = base.copy()
        bulk.apply_plan(plan, 0, len(movers))
        assert (base.members[old] == 1).any() and (base.members[old] > 1).any()
        for name in ("exit", "sum_p", "members"):
            assert getattr(bulk, name).tobytes() == getattr(one, name).tobytes()
        assert np.float64(bulk.sum_exit).tobytes() == (
            np.float64(one.sum_exit).tobytes()
        )

    def test_same_module_move_is_zero(self, setup):
        _g, net, membership, stats = setup
        args = self._move_args(net, membership, 0, int(membership[0]))
        assert delta_codelength(
            stats, old=int(membership[0]), new=int(membership[0]), **args
        ) == 0.0

    def test_delta_from_values_matches_stats_path(self, setup):
        _g, net, membership, stats = setup
        u, target = 7, 0
        cur = int(membership[u])
        if cur == target:
            target = 1
        args = self._move_args(net, membership, u, target)
        via_stats = delta_codelength(stats, old=cur, new=target, **args)
        via_values = delta_from_values(
            sum_exit=stats.sum_exit,
            q_old=float(stats.exit[cur]),
            p_old=float(stats.sum_p[cur]),
            q_new=float(stats.exit[target]),
            p_new=float(stats.sum_p[target]),
            **args,
        )
        assert via_stats == pytest.approx(via_values)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(2, 6),
    size=st.integers(3, 8),
)
def test_property_incremental_equals_recompute(seed, k, size):
    """Any random move sequence keeps incremental stats exact."""
    lg = ring_of_cliques(k, size)
    net = FlowNetwork.from_graph(lg.graph)
    rng = np.random.default_rng(seed)
    membership = rng.integers(0, k, size=lg.graph.num_vertices).astype(
        np.int64
    )
    stats = ModuleStats.from_membership(net, membership)
    from repro.core import neighbor_module_flows

    for _ in range(20):
        u = int(rng.integers(lg.graph.num_vertices))
        target = int(rng.integers(k))
        cur = int(membership[u])
        if cur == target:
            continue
        mods, flows, x_u = neighbor_module_flows(net, membership, u)
        d_of = dict(zip(mods.tolist(), flows.tolist()))
        stats.apply_move(
            old=cur, new=target,
            p_u=float(net.node_flow[u]), x_u=x_u,
            d_old=d_of.get(cur, 0.0), d_new=d_of.get(target, 0.0),
        )
        membership[u] = target
    fresh = ModuleStats.from_membership(net, membership)
    # `fresh` sizes its arrays by max(membership)+1, which can be
    # smaller than the fixed k-slot incremental arrays once the highest
    # modules empty out; compare over the common prefix and require the
    # excess slots to be empty.
    m = fresh.exit.size
    np.testing.assert_allclose(fresh.exit, stats.exit[:m], atol=1e-12)
    np.testing.assert_allclose(fresh.sum_p, stats.sum_p[:m], atol=1e-12)
    np.testing.assert_allclose(stats.exit[m:], 0.0, atol=1e-12)
    assert fresh.codelength() == pytest.approx(stats.codelength(), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_flow_conservation(seed):
    """Σ node_flow == 1 and q_m >= 0 for random graphs and partitions."""
    lg = powerlaw_planted_partition(120, 5, mu=0.3, seed=seed)
    net = FlowNetwork.from_graph(lg.graph)
    assert net.total_flow() == pytest.approx(1.0)
    rng = np.random.default_rng(seed)
    membership = rng.integers(0, 9, size=120)
    stats = ModuleStats.from_membership(net, membership)
    assert stats.sum_p.sum() == pytest.approx(1.0)
    assert (stats.exit >= -1e-12).all()
    assert stats.sum_exit == pytest.approx(stats.exit.sum())
