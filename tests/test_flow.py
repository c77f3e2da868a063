"""Flow networks: normalization and coarsening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlowNetwork
from repro.graph import (
    complete_graph,
    cycle_graph,
    from_edges,
    powerlaw_planted_partition,
    ring_of_cliques,
    star,
)


class TestFlowNetwork:
    def test_node_flow_is_relative_degree(self):
        g = star(4)  # hub degree 4, leaves degree 1; 2W = 8
        net = FlowNetwork.from_graph(g)
        np.testing.assert_allclose(
            net.node_flow, [0.5, 0.125, 0.125, 0.125, 0.125]
        )

    def test_total_flow_one(self):
        net = FlowNetwork.from_graph(complete_graph(7))
        assert net.total_flow() == pytest.approx(1.0)

    def test_exit_equals_flow_without_self_loops(self):
        net = FlowNetwork.from_graph(cycle_graph(6))
        np.testing.assert_allclose(net.node_exit_flow(), net.node_flow)

    def test_self_loop_flow_stays_home(self):
        g = from_edges([(0, 1, 1.0), (0, 0, 1.0)], keep_self_loops=True)
        net = FlowNetwork.from_graph(g)
        # W = 2; vertex 0 degree = 1 + 2*1 = 3 -> p0 = 3/4
        assert net.node_flow[0] == pytest.approx(0.75)
        # but only the (0,1) edge exits
        assert net.node_exit_flow()[0] == pytest.approx(0.25)

    def test_empty_graph_rejected(self):
        g = from_edges([], num_vertices=3)
        with pytest.raises(ValueError):
            FlowNetwork.from_graph(g)

    def test_shape_mismatch_rejected(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            FlowNetwork(graph=g, node_flow=np.ones(5))

    def test_coarsen_preserves_flow_mass(self):
        lg = ring_of_cliques(5, 4)
        net = FlowNetwork.from_graph(lg.graph)
        coarse, community_of = net.coarsen(lg.labels)
        assert coarse.total_flow() == pytest.approx(1.0)
        assert coarse.graph.num_vertices == 5
        np.testing.assert_array_equal(community_of, lg.labels)

    def test_coarsen_exit_matches_cut(self):
        """Coarse singleton exits equal the fine partition's module exits."""
        from repro.core import ModuleStats

        lg = ring_of_cliques(4, 5)
        net = FlowNetwork.from_graph(lg.graph)
        fine_stats = ModuleStats.from_membership(net, lg.labels)
        coarse, _ = net.coarsen(lg.labels)
        np.testing.assert_allclose(
            coarse.node_exit_flow(), fine_stats.exit, atol=1e-14
        )
        np.testing.assert_allclose(
            coarse.node_flow, fine_stats.sum_p, atol=1e-14
        )

    def test_codelength_invariant_under_coarsening(self):
        """Clustering-by-labels then coarsening must not change L when
        the coarse partition is the identity (node term threaded)."""
        from repro.core import ModuleStats, plogp

        lg = ring_of_cliques(6, 4)
        net = FlowNetwork.from_graph(lg.graph)
        node_term = -float(plogp(net.node_flow).sum())
        fine = ModuleStats.from_membership(net, lg.labels)
        coarse, _ = net.coarsen(lg.labels)
        coarse_stats = ModuleStats.from_membership(
            coarse, np.arange(6), node_term=node_term
        )
        assert coarse_stats.codelength() == pytest.approx(fine.codelength())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), k=st.integers(2, 8))
def test_property_coarsen_flow_conserved(seed, k):
    lg = powerlaw_planted_partition(150, 5, mu=0.3, seed=seed)
    net = FlowNetwork.from_graph(lg.graph)
    rng = np.random.default_rng(seed)
    membership = rng.integers(0, k, size=150)
    coarse, _ = net.coarsen(membership)
    assert coarse.total_flow() == pytest.approx(1.0)
    # Flow-weight sum is also preserved (self-loops keep internal mass).
    assert coarse.graph.total_weight == pytest.approx(
        net.graph.total_weight
    )
