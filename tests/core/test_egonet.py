"""Ego-network formation tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import build_ego_networks, one_hop_neighbors
from repro.graph import Graph


class TestBuildEgoNetworks:
    def test_radius_one_is_neighborhood(self, triangle_graph):
        egos = build_ego_networks(triangle_graph.edge_index, 4, radius=1)
        assert set(egos.members_of(0)) == {1, 2}
        assert set(egos.members_of(3)) == {2}
        assert egos.sizes().tolist() == [2, 2, 3, 1]

    def test_radius_two_reaches_pendant(self, triangle_graph):
        egos = build_ego_networks(triangle_graph.edge_index, 4, radius=2)
        assert 3 in egos.members_of(0)
        assert set(egos.members_of(3)) == {0, 1, 2}

    def test_excludes_self(self, triangle_graph):
        for radius in (1, 2):
            egos = build_ego_networks(triangle_graph.edge_index, 4, radius)
            assert not (egos.ego == egos.member).any()

    def test_isolated_node_has_empty_egonet(self):
        g = Graph(np.array([[0, 1], [1, 0]]), num_nodes=3)
        egos = build_ego_networks(g.edge_index, 3, radius=1)
        assert egos.sizes()[2] == 0
        assert egos.members_of(2).size == 0

    def test_symmetric_pairs(self, two_cliques_graph):
        egos = build_ego_networks(two_cliques_graph.edge_index, 8, radius=1)
        pair_set = set(zip(egos.ego.tolist(), egos.member.tolist()))
        assert all((j, i) in pair_set for i, j in pair_set)

    def test_invalid_radius(self, triangle_graph):
        with pytest.raises(ValueError):
            build_ego_networks(triangle_graph.edge_index, 4, radius=0)

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("bad", [-1, 4, 7])
    @pytest.mark.parametrize("side", [0, 1])
    def test_node_ids_out_of_range_raise(self, triangle_graph, radius,
                                         bad, side):
        edges = triangle_graph.edge_index.copy()
        edges[side, 2] = bad
        with pytest.raises(ValueError, match="ids must lie in"):
            build_ego_networks(edges, 4, radius)

    def test_directed_input_treated_undirected(self):
        g = Graph(np.array([[0], [1]]), num_nodes=2)  # one direction only
        egos = build_ego_networks(g.edge_index, 2, radius=1)
        assert set(egos.members_of(1)) == {0}

    def test_one_hop_helper(self, triangle_graph):
        egos = one_hop_neighbors(triangle_graph.edge_index, 4)
        assert egos.radius == 1
        assert egos.num_pairs == 8


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 15), p=st.floats(0.1, 0.6),
       seed=st.integers(0, 1000))
def test_property_radius_monotone(n, p, seed):
    """Increasing λ never shrinks any ego-network."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    src, dst = np.nonzero(upper)
    edges = np.stack([np.concatenate([src, dst]),
                      np.concatenate([dst, src])])
    if edges.size == 0:
        edges = edges.reshape(2, 0)
    one = build_ego_networks(edges, n, radius=1)
    two = build_ego_networks(edges, n, radius=2)
    assert (two.sizes() >= one.sizes()).all()


class TestMembersOfIndex:
    def test_members_match_boolean_scan(self, two_cliques_graph):
        egos = build_ego_networks(two_cliques_graph.edge_index,
                                  two_cliques_graph.num_nodes, radius=2)
        for node in range(egos.num_nodes):
            via_index = np.sort(egos.members_of(node))
            via_scan = np.sort(egos.member[egos.ego == node])
            np.testing.assert_array_equal(via_index, via_scan)

    def test_isolated_node_yields_empty(self):
        g = Graph(edge_index=np.array([[0, 1], [1, 0]]), num_nodes=3)
        egos = build_ego_networks(g.edge_index, g.num_nodes)
        assert egos.members_of(2).size == 0

    def test_pairs_are_row_major(self, two_cliques_graph):
        for radius in (1, 2, 3):
            egos = build_ego_networks(two_cliques_graph.edge_index,
                                      two_cliques_graph.num_nodes, radius)
            assert (np.diff(egos.ego) >= 0).all()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=12),
       p=st.floats(min_value=0.1, max_value=0.9),
       seed=st.integers(min_value=0, max_value=99))
def test_property_members_of_matches_scan(n, p, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    src, dst = np.nonzero(np.triu(mask, k=1))
    edge_index = np.concatenate(
        [np.stack([src, dst]), np.stack([dst, src])], axis=1)
    egos = build_ego_networks(edge_index, n, radius=2)
    for node in range(n):
        np.testing.assert_array_equal(
            np.sort(egos.members_of(node)),
            np.sort(egos.member[egos.ego == node]))
