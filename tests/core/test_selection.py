"""Ego selection and assignment-matrix tests, including Proposition 1."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (build_assignment, build_ego_networks,
                        hyper_graph_connectivity, select_egos)
from repro.graph import Graph
from repro.tensor import Tensor


def random_connected_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    # Spanning path guarantees connectivity; extra edges by probability.
    pairs = {(i, i + 1) for i in range(n - 1)}
    upper = np.triu(rng.random((n, n)) < p, k=1)
    pairs |= set(zip(*np.nonzero(upper)))
    src = np.array([p_[0] for p_ in pairs] + [p_[1] for p_ in pairs])
    dst = np.array([p_[1] for p_ in pairs] + [p_[0] for p_ in pairs])
    return Graph(np.stack([src, dst]), num_nodes=n)


class TestSelectEgos:
    def test_local_maximum_rule(self, triangle_graph):
        egos = build_ego_networks(triangle_graph.edge_index, 4, radius=1)
        phi = np.array([0.9, 0.2, 0.5, 0.1])
        selected = select_egos(phi, egos, egos.sizes())
        # Node 0 beats neighbours 1, 2; node 2 loses to 0; node 3 loses to 2.
        assert selected.tolist() == [0]

    def test_multiple_local_maxima(self, two_cliques_graph):
        egos = build_ego_networks(two_cliques_graph.edge_index, 8, radius=1)
        # Node 4 neighbours node 0 over the bridge, so it cannot win;
        # node 5 is a local maximum inside the second clique.
        phi = np.array([0.9, 0.1, 0.1, 0.1, 0.2, 0.8, 0.1, 0.1])
        selected = select_egos(phi, egos, egos.sizes())
        assert selected.tolist() == [0, 5]

    def test_tie_break_by_node_id(self):
        # Two connected nodes with identical fitness: lower id wins.
        g = Graph(np.array([[0, 1], [1, 0]]), num_nodes=2)
        egos = build_ego_networks(g.edge_index, 2, radius=1)
        selected = select_egos(np.array([0.5, 0.5]), egos, egos.sizes())
        assert selected.tolist() == [0]

    def test_isolated_nodes_never_selected(self):
        g = Graph(np.array([[0, 1], [1, 0]]), num_nodes=3)
        egos = build_ego_networks(g.edge_index, 3, radius=1)
        phi = np.array([0.1, 0.2, 0.99])
        selected = select_egos(phi, egos, egos.sizes())
        assert 2 not in selected.tolist()

    def test_empty_graph(self):
        from repro.core.egonet import EgoNetworks
        empty = EgoNetworks(np.zeros(0, np.int64), np.zeros(0, np.int64),
                            3, 1)
        assert select_egos(np.ones(3), empty, np.zeros(3)).size == 0


class TestProposition1:
    """Proposition 1: a connected graph always yields ≥1 selected ego."""

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 25), p=st.floats(0.0, 0.5),
           seed=st.integers(0, 10_000))
    def test_nonempty_selection_random_scores(self, n, p, seed):
        g = random_connected_graph(n, p, seed)
        egos = build_ego_networks(g.edge_index, n, radius=1)
        phi = np.random.default_rng(seed + 1).random(n)
        assert select_egos(phi, egos, egos.sizes()).size >= 1

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 15), seed=st.integers(0, 1000))
    def test_nonempty_selection_under_exact_ties(self, n, seed):
        """Even all-equal fitness selects a node (id tie-break)."""
        g = random_connected_graph(n, 0.3, seed)
        egos = build_ego_networks(g.edge_index, n, radius=1)
        phi = np.full(n, 0.5)
        assert select_egos(phi, egos, egos.sizes()).size >= 1

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 20), seed=st.integers(0, 1000))
    def test_global_maximum_always_selected(self, n, seed):
        g = random_connected_graph(n, 0.2, seed)
        egos = build_ego_networks(g.edge_index, n, radius=1)
        phi = np.random.default_rng(seed).permutation(n).astype(float)
        selected = select_egos(phi, egos, egos.sizes())
        assert int(phi.argmax()) in selected.tolist()


class TestBuildAssignment:
    @pytest.fixture
    def setup(self, two_cliques_graph, rng):
        egos = build_ego_networks(two_cliques_graph.edge_index, 8, radius=1)
        phi_pairs = Tensor(rng.random(egos.num_pairs) * 0.5 + 0.25,
                           requires_grad=True)
        selected = np.array([0, 4])
        return egos, phi_pairs, selected

    def test_every_node_covered(self, setup):
        egos, phi_pairs, selected = setup
        assignment = build_assignment(phi_pairs, egos, selected)
        assert set(assignment.rows.tolist()) == set(range(8))

    def test_ego_entries_are_one(self, setup):
        egos, phi_pairs, selected = setup
        a = build_assignment(phi_pairs, egos, selected)
        s = a.dense()
        assert s[0, 0] == 1.0
        assert s[4, 1] == 1.0

    def test_member_entries_are_fitness(self, setup):
        egos, phi_pairs, selected = setup
        a = build_assignment(phi_pairs, egos, selected)
        s = a.dense()
        pair = np.flatnonzero((egos.ego == 0) & (egos.member == 1))[0]
        assert s[1, 0] == pytest.approx(phi_pairs.data[pair])

    def test_retained_nodes(self, triangle_graph, rng):
        egos = build_ego_networks(triangle_graph.edge_index, 4, radius=1)
        phi_pairs = Tensor(rng.random(egos.num_pairs))
        # Select only node 0 (members 1, 2); node 3 must be retained.
        a = build_assignment(phi_pairs, egos, np.array([0]))
        assert a.retained.tolist() == [3]
        assert a.num_hyper == 2
        assert a.seed_of_col.tolist() == [0, 3]
        assert a.dense()[3, 1] == 1.0

    def test_overlapping_egonets_share_members(self, two_cliques_graph,
                                               rng):
        egos = build_ego_networks(two_cliques_graph.edge_index, 8, radius=1)
        phi_pairs = Tensor(rng.random(egos.num_pairs))
        # Nodes 0 and 1 are clique-mates: their ego-nets overlap heavily.
        a = build_assignment(phi_pairs, egos, np.array([0, 1]))
        s = a.dense()
        # Clique member 2 belongs to both selected ego-networks.
        assert s[2, 0] > 0 and s[2, 1] > 0

    def test_no_selection_all_retained(self, triangle_graph, rng):
        egos = build_ego_networks(triangle_graph.edge_index, 4, radius=1)
        phi_pairs = Tensor(rng.random(egos.num_pairs))
        a = build_assignment(phi_pairs, egos, np.zeros(0, dtype=np.int64))
        assert a.num_hyper == 4
        assert np.allclose(a.dense(), np.eye(4))


class TestHyperGraphConnectivity:
    def test_bridge_preserved(self, two_cliques_graph, rng):
        egos = build_ego_networks(two_cliques_graph.edge_index, 8, radius=1)
        phi_pairs = Tensor(rng.random(egos.num_pairs) + 0.1)
        a = build_assignment(phi_pairs, egos, np.array([0, 4]))
        edges, weight = hyper_graph_connectivity(
            a, two_cliques_graph.edge_index, two_cliques_graph.edge_weight)
        # The two hyper-nodes (clique 1, clique 2) stay connected via the
        # 0-4 bridge.
        pairs = set(zip(edges[0].tolist(), edges[1].tolist()))
        assert (0, 1) in pairs and (1, 0) in pairs
        assert (weight > 0).all()

    def test_no_self_loops_emitted(self, two_cliques_graph, rng):
        egos = build_ego_networks(two_cliques_graph.edge_index, 8, radius=1)
        phi_pairs = Tensor(rng.random(egos.num_pairs) + 0.1)
        a = build_assignment(phi_pairs, egos, np.array([0, 4]))
        edges, _ = hyper_graph_connectivity(
            a, two_cliques_graph.edge_index, two_cliques_graph.edge_weight)
        assert (edges[0] != edges[1]).all()

    def test_shared_node_connects_hypernodes(self, triangle_graph, rng):
        egos = build_ego_networks(triangle_graph.edge_index, 4, radius=1)
        phi_pairs = Tensor(rng.random(egos.num_pairs) + 0.1)
        # Select egos 0 and 2 — ego-nets share nodes 1 and each other.
        a = build_assignment(phi_pairs, egos, np.array([0, 2]))
        edges, _ = hyper_graph_connectivity(
            a, triangle_graph.edge_index, triangle_graph.edge_weight)
        pairs = set(zip(edges[0].tolist(), edges[1].tolist()))
        assert (0, 1) in pairs
