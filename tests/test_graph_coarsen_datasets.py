"""Coarsening invariants and the Table-1 dataset stand-ins."""

import numpy as np
import pytest

from repro.graph import (
    LARGE_DATASETS,
    SMALL_DATASETS,
    coarsen,
    compact_labels,
    dataset_names,
    degree_summary,
    from_edges,
    load_dataset,
    project_labels,
    ring_of_cliques,
)


class TestCoarsen:
    def test_ring_of_cliques_collapses_to_ring(self):
        lg = ring_of_cliques(5, 4)
        cg = coarsen(lg.graph, lg.labels)
        assert cg.num_communities == 5
        assert cg.graph.num_self_loops == 5  # intra-clique mass
        np.testing.assert_array_equal(cg.sizes, [4] * 5)

    def test_total_weight_preserved(self):
        lg = ring_of_cliques(6, 5)
        cg = coarsen(lg.graph, lg.labels)
        assert cg.graph.total_weight == pytest.approx(lg.graph.total_weight)

    def test_weight_preserved_with_arbitrary_membership(self):
        from repro.graph import powerlaw_planted_partition

        g = powerlaw_planted_partition(400, 8, seed=3).graph
        rng = np.random.default_rng(0)
        membership = rng.integers(0, 17, size=g.num_vertices)
        cg = coarsen(g, membership)
        assert cg.graph.total_weight == pytest.approx(g.total_weight)
        cg.graph.validate()

    def test_inter_community_weight_summed(self):
        g = from_edges([(0, 2), (0, 3), (1, 2), (1, 3)])
        cg = coarsen(g, np.array([0, 0, 1, 1]))
        assert cg.graph.num_vertices == 2
        assert cg.graph.edge_weight(0, 1) == pytest.approx(4.0)

    def test_noncontiguous_labels_compacted(self):
        g = from_edges([(0, 1), (1, 2)])
        cg = coarsen(g, np.array([10, 10, 99]))
        assert cg.num_communities == 2
        np.testing.assert_array_equal(cg.community_of, [0, 0, 1])

    def test_shape_mismatch_rejected(self):
        g = from_edges([(0, 1)])
        with pytest.raises(ValueError):
            coarsen(g, np.array([0, 0, 0]))

    def test_compact_labels_roundtrip(self):
        labels = np.array([5, 3, 5, 9])
        compacted, originals = compact_labels(labels)
        np.testing.assert_array_equal(originals[compacted], labels)

    def test_project_labels(self):
        community_of = np.array([0, 0, 1, 1, 2])
        coarse_labels = np.array([7, 7, 8])
        out = project_labels(coarse_labels, community_of)
        np.testing.assert_array_equal(out, [7, 7, 7, 7, 8])

    def test_project_labels_range_check(self):
        with pytest.raises(ValueError):
            project_labels(np.array([1]), np.array([0, 5]))

    def test_double_coarsen_composes(self):
        lg = ring_of_cliques(8, 4)
        cg1 = coarsen(lg.graph, lg.labels)
        pairs = cg1.community_of  # fine -> level1
        level2 = coarsen(cg1.graph, np.arange(8) // 2)
        composed = project_labels(level2.community_of, pairs)
        assert np.unique(composed).size == 4


class TestDatasets:
    def test_names_cover_table1(self):
        assert len(dataset_names()) == 9
        assert set(SMALL_DATASETS) <= set(dataset_names())
        assert set(LARGE_DATASETS) <= set(dataset_names())

    def test_load_reproducible(self):
        a = load_dataset("dblp", seed=1)
        b = load_dataset("dblp", seed=1)
        np.testing.assert_array_equal(a.graph.indices, b.graph.indices)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("not-a-dataset")

    def test_name_normalization(self):
        assert load_dataset("UK-2007", scale=0.1).name == "uk2007"
        assert load_dataset("WebBase2001", scale=0.1).name == "webbase2001"

    def test_ground_truth_flags(self):
        assert load_dataset("amazon", scale=0.5).has_ground_truth
        assert not load_dataset("uk2005", scale=0.2).has_ground_truth

    def test_scale_changes_size(self):
        small = load_dataset("dblp", scale=0.25)
        big = load_dataset("dblp", scale=1.0)
        assert big.graph.num_vertices > 2 * small.graph.num_vertices

    def test_size_ordering_preserved(self):
        """The paper's dataset ordering by edge count must survive."""
        uk07 = load_dataset("uk2007", scale=0.25).graph.num_edges
        uk05 = load_dataset("uk2005", scale=0.25).graph.num_edges
        dblp = load_dataset("dblp", scale=0.25).graph.num_edges
        assert uk07 > uk05 > dblp

    @pytest.mark.parametrize("name", dataset_names())
    def test_all_standins_are_hub_heavy(self, name):
        data = load_dataset(name, scale=0.5)
        s = degree_summary(data.graph)
        # Scale-free signature: max degree well above the mean.
        assert s.max_degree > 3 * s.mean_degree
        assert data.graph.num_edges > 0
        data.graph.validate()

    def test_provenance_recorded(self):
        d = load_dataset("friendster", scale=0.2)
        assert d.paper_name == "Friendster"
        assert d.paper_edges == "1.81B"
        assert d.params["scale"] == 0.2
