"""Verify the sparse assignment operations against dense linear algebra.

The unpooling primitive ``apply_assignment`` and the connectivity formula
``A_k = S_kᵀ Â S_k`` are implemented with segment ops / scipy; these tests
check them cell-for-cell against dense NumPy matrix products.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (apply_assignment, build_assignment,
                        build_ego_networks, hyper_graph_connectivity,
                        select_egos, unpool)
from repro.tensor import Tensor


@pytest.fixture
def setup(two_cliques_graph, rng):
    graph = two_cliques_graph
    egos = build_ego_networks(graph.edge_index, graph.num_nodes, radius=1)
    phi_nodes = rng.random(graph.num_nodes)
    selected = select_egos(phi_nodes, egos, egos.sizes())
    phi_pairs = Tensor(rng.random(egos.num_pairs) * 0.8 + 0.1,
                       requires_grad=True)
    assignment = build_assignment(phi_pairs, egos, selected)
    return graph, assignment


class TestDenseEquivalence:
    def test_apply_assignment_equals_dense_matmul(self, setup, rng):
        graph, assignment = setup
        h_hyper = rng.normal(size=(assignment.num_hyper, 6))
        sparse_result = apply_assignment(assignment, Tensor(h_hyper))
        dense_s = assignment.dense()
        assert np.allclose(sparse_result.data, dense_s @ h_hyper)

    def test_unpool_two_levels_equals_chained_matmul(self, setup, rng):
        graph, assignment1 = setup
        # Build a second level on top of the first hyper-graph.
        edges1, weight1 = hyper_graph_connectivity(
            assignment1, graph.edge_index, graph.edge_weight)
        n1 = assignment1.num_hyper
        egos2 = build_ego_networks(edges1, n1, radius=1)
        phi_nodes2 = rng.random(n1)
        selected2 = select_egos(phi_nodes2, egos2, egos2.sizes())
        phi_pairs2 = Tensor(rng.random(egos2.num_pairs) * 0.5 + 0.2)
        assignment2 = build_assignment(phi_pairs2, egos2, selected2)

        h_top = rng.normal(size=(assignment2.num_hyper, 4))
        result = unpool([assignment1, assignment2], Tensor(h_top))
        s1 = assignment1.dense()
        s2 = assignment2.dense()
        assert np.allclose(result.data, s1 @ (s2 @ h_top))

    def test_connectivity_equals_dense_sandwich(self, setup):
        graph, assignment = setup
        edges, weight = hyper_graph_connectivity(
            assignment, graph.edge_index, graph.edge_weight)
        n = graph.num_nodes
        a_hat = graph.dense_adjacency() + np.eye(n)
        dense_s = assignment.dense()
        expected = dense_s.T @ a_hat @ dense_s
        rebuilt = sp.csr_matrix(
            (weight, (edges[0], edges[1])),
            shape=(assignment.num_hyper, assignment.num_hyper)).toarray()
        # Off-diagonal entries must match exactly (diagonal is dropped).
        off_diag = ~np.eye(assignment.num_hyper, dtype=bool)
        assert np.allclose(rebuilt[off_diag], expected[off_diag])
        assert np.allclose(np.diag(rebuilt), 0.0)

    def test_gradient_through_fitness_values(self, two_cliques_graph, rng):
        """d(S@H)/d(φ_ij) matches the dense Jacobian: upstream[j]·h[col]."""
        graph = two_cliques_graph
        egos = build_ego_networks(graph.edge_index, graph.num_nodes, 1)
        phi_pairs = Tensor(rng.random(egos.num_pairs) * 0.8 + 0.1,
                           requires_grad=True)
        selected = np.array([0, 4])
        assignment = build_assignment(phi_pairs, egos, selected)

        h_hyper = rng.normal(size=(assignment.num_hyper, 3))
        out = apply_assignment(assignment, Tensor(h_hyper))
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        assert phi_pairs.grad is not None

        # Member entries of S come 1:1 from phi_pairs at the selected egos;
        # each contributes upstream[member_row] · h_hyper[ego_col].
        is_selected = np.zeros(graph.num_nodes, dtype=bool)
        is_selected[selected] = True
        col_of_ego = {0: 0, 4: 1}
        for p in range(egos.num_pairs):
            ego = int(egos.ego[p])
            member = int(egos.member[p])
            if is_selected[ego]:
                expected = float(upstream[member]
                                 @ h_hyper[col_of_ego[ego]])
                assert phi_pairs.grad[p] == pytest.approx(expected)
            else:
                assert phi_pairs.grad[p] == 0.0
