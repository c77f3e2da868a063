"""Connected components utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    component_sizes,
    connected_components,
    count_disconnected_modules,
    erdos_renyi,
    from_edges,
    largest_component,
    num_connected_components,
    path_graph,
    ring_of_cliques,
)


class TestComponents:
    def test_connected_graph_single_component(self):
        g = ring_of_cliques(4, 4).graph
        assert num_connected_components(g) == 1

    def test_two_components_plus_isolate(self):
        g = from_edges([(0, 1), (1, 2), (4, 5)], num_vertices=7)
        labels = connected_components(g)
        assert num_connected_components(g) == 4  # {0,1,2}, {3}, {4,5}, {6}
        assert labels[0] == labels[1] == labels[2]
        assert labels[4] == labels[5]
        assert labels[3] != labels[0] and labels[6] != labels[4]

    def test_component_sizes_descending(self):
        g = from_edges([(0, 1), (1, 2), (4, 5)], num_vertices=7)
        np.testing.assert_array_equal(component_sizes(g), [3, 2, 1, 1])

    def test_largest_component_subgraph(self):
        g = from_edges([(0, 1), (1, 2), (0, 2), (5, 6)], num_vertices=8)
        sub, orig = largest_component(g)
        assert sub.num_vertices == 3
        assert sub.num_edges == 3
        np.testing.assert_array_equal(orig, [0, 1, 2])
        sub.validate()

    def test_largest_component_of_connected_is_identity(self):
        g = path_graph(10)
        sub, orig = largest_component(g)
        assert sub.num_vertices == 10
        np.testing.assert_array_equal(orig, np.arange(10))

    def test_empty_graph_rejected(self):
        g = from_edges([], num_vertices=0)
        with pytest.raises(ValueError):
            largest_component(g)

    def test_preserves_weights_and_self_loops(self):
        g = from_edges([(0, 1, 2.5), (1, 1, 3.0), (3, 4, 1.0)],
                       keep_self_loops=True)
        sub, orig = largest_component(g)
        assert sub.num_self_loops == 1
        assert sub.total_weight == pytest.approx(5.5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), p=st.floats(0.0, 0.06))
def test_property_components_partition_vertices(seed, p):
    g = erdos_renyi(80, p, seed=seed)
    labels = connected_components(g)
    assert labels.min() >= 0
    # Every edge joins same-component endpoints.
    src, dst, _ = g.edge_array()
    assert (labels[src] == labels[dst]).all()
    # Sizes sum to n.
    assert component_sizes(g).sum() == 80
    # Largest-component extraction is consistent with the sizes.
    if g.num_edges:
        sub, orig = largest_component(g)
        assert sub.num_vertices == component_sizes(g)[0]


class TestDisconnectedModules:
    def test_connected_modules_count_zero(self):
        lg = ring_of_cliques(4, 4)
        assert count_disconnected_modules(lg.graph, lg.labels) == 0

    def test_module_split_by_a_cut(self):
        # {0,1} and {3,4} share module 0 but no intra-module edge;
        # module 1 = {2} is a singleton, module 2 = {5,6} is connected.
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)],
                       num_vertices=7)
        memb = np.array([0, 0, 1, 0, 0, 2, 2])
        assert count_disconnected_modules(g, memb) == 1

    def test_isolated_members_count(self):
        g = from_edges([(0, 1)], num_vertices=4)
        assert count_disconnected_modules(g, np.array([0, 0, 1, 1])) == 1
        assert count_disconnected_modules(g, np.array([0, 0, 1, 2])) == 0

    def test_shape_checked(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            count_disconnected_modules(g, np.zeros(2, dtype=np.int64))
