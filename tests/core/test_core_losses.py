"""Training-strategy loss tests (Eq. 5 self-optimisation, Eq. 6 reconstruction)."""

import numpy as np
import pytest

from repro.core import (dense_reconstruction_loss, link_probabilities,
                        pair_logits, sample_non_edges,
                        sampled_reconstruction_loss, self_optimisation_loss,
                        soft_assignment, target_distribution)
from repro.core.losses import _self_optimisation_loss_reference
from repro.tensor import (Tensor, assert_gradients_close, default_dtype,
                          naive_kernels)

DTYPES = [np.float32, np.float64]


class TestSoftAssignment:
    def test_rows_are_distributions(self, rng):
        h = Tensor(rng.normal(size=(10, 4)))
        q = soft_assignment(h, np.array([0, 3, 7]))
        assert q.shape == (10, 3)
        assert np.allclose(q.data.sum(axis=1), 1.0)
        assert (q.data > 0).all()

    def test_node_prefers_nearest_ego(self, rng):
        h = np.zeros((4, 2))
        h[0] = [0, 0]
        h[1] = [10, 10]
        h[2] = [0.1, 0.1]   # close to ego 0
        h[3] = [9.9, 9.9]   # close to ego 1
        q = soft_assignment(Tensor(h), np.array([0, 1]))
        assert q.data[2, 0] > 0.9
        assert q.data[3, 1] > 0.9

    def test_ego_assigns_to_itself(self, rng):
        h = Tensor(rng.normal(size=(5, 3)) * 3)
        q = soft_assignment(h, np.array([1, 4]))
        assert q.data[1, 0] > q.data[1, 1]
        assert q.data[4, 1] > q.data[4, 0]

    def test_empty_egos_rejected(self, rng):
        with pytest.raises(ValueError):
            soft_assignment(Tensor(rng.normal(size=(3, 2))),
                            np.zeros(0, dtype=np.int64))

    def test_student_t_mu(self, rng):
        h = Tensor(rng.normal(size=(6, 3)))
        a = soft_assignment(h, np.array([0, 1]), mu=1.0)
        b = soft_assignment(h, np.array([0, 1]), mu=100.0)
        # Large μ flattens the kernel toward uniform.
        assert np.abs(b.data - 0.5).mean() < np.abs(a.data - 0.5).mean()


class TestTargetDistribution:
    def test_rows_normalised(self, rng):
        q = rng.random((8, 3))
        q /= q.sum(axis=1, keepdims=True)
        p = target_distribution(q)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_sharpens_confident_assignments(self):
        q = np.array([[0.6, 0.4], [0.5, 0.5]])
        p = target_distribution(q)
        # Squaring makes the 0.6 assignment more extreme.
        assert p[0, 0] > q[0, 0]


class TestSelfOptimisationLoss:
    def test_positive_scalar(self, rng):
        h = Tensor(rng.normal(size=(12, 4)), requires_grad=True)
        loss = self_optimisation_loss(h, np.array([0, 5]))
        assert loss.size == 1
        assert loss.item() >= 0.0

    def test_zero_for_no_egos(self, rng):
        h = Tensor(rng.normal(size=(4, 2)))
        assert self_optimisation_loss(h, np.zeros(0, np.int64)).item() == 0.0

    def test_gradients_with_fixed_target(self, rng):
        """With P held fixed (the DEC semantics the loss implements), the
        cross-entropy term has exact gradients.

        Note: a naive finite-difference check of the full loss would FAIL by
        design — perturbing h also perturbs the detached target P, a term
        the analytic gradient intentionally excludes.
        """
        from repro.tensor import clip, log
        h = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        egos = np.array([0, 3])
        p_fixed = target_distribution(soft_assignment(h, egos).data)

        def fixed_p_loss(t):
            q = soft_assignment(t, egos)
            return -(Tensor(p_fixed) * log(clip(q, 1e-12, 1.0))).sum()

        assert_gradients_close(fixed_p_loss, [h], atol=1e-4)

    def test_descent_with_fixed_target_reduces_loss(self, rng):
        """Gradient descent against a frozen target P makes progress."""
        from repro.tensor import clip, log
        h = Tensor(rng.normal(size=(10, 2)), requires_grad=True)
        egos = np.array([0, 1])
        p_fixed = target_distribution(soft_assignment(h, egos).data)

        def fixed_p_loss(t):
            q = soft_assignment(t, egos)
            return -(Tensor(p_fixed) * log(clip(q, 1e-12, 1.0))).sum()

        before = fixed_p_loss(h).item()
        for _ in range(100):
            h.zero_grad()
            fixed_p_loss(h).backward()
            h.data -= 0.05 * h.grad
        assert fixed_p_loss(h).item() < before

    def test_loss_sharpens_assignments(self, rng):
        """Full-loss descent makes Q more confident (max prob rises)."""
        h = Tensor(rng.normal(size=(10, 2)), requires_grad=True)
        egos = np.array([0, 1])
        before_conf = soft_assignment(h, egos).data.max(axis=1).mean()
        for _ in range(100):
            h.zero_grad()
            self_optimisation_loss(h, egos).backward()
            h.data -= 0.1 * h.grad
        after_conf = soft_assignment(h, egos).data.max(axis=1).mean()
        assert after_conf > before_conf


@pytest.mark.parametrize("dtype", DTYPES)
def test_self_optimisation_loss_fused_matches_reference(rng, dtype):
    # No FD gradcheck: the target distribution P is detached by design
    # (Eq. 5), so finite differences — which perturb through P —
    # disagree with the intended VJP.  The fused backward is pinned to
    # the compositional reference, which detaches P the same way.
    h_data = rng.normal(size=(10, 4)).astype(dtype)
    egos = np.array([1, 4, 7])
    atol = 1e-6 if dtype == np.float32 else 1e-13
    with default_dtype(dtype):   # the reference wraps raw ndarrays
        ref = Tensor(h_data.copy(), dtype=dtype, requires_grad=True)
        _self_optimisation_loss_reference(ref, egos, mu=1.0).backward()
        got = Tensor(h_data.copy(), dtype=dtype, requires_grad=True)
        self_optimisation_loss(got, egos).backward()
    np.testing.assert_allclose(got.grad, ref.grad, atol=atol)


@pytest.mark.parametrize("dtype", DTYPES)
def test_sampled_reconstruction_fast_matches_naive(rng, dtype):
    # The fused pair-BCE path against the reference kernels on the same
    # values and the same negative draws (fresh leaves per arm).
    h_data = rng.normal(size=(12, 4)).astype(dtype)
    edges = np.array([[0, 1, 2, 5, 8, 9], [1, 2, 3, 6, 9, 10]])
    atol = 1e-5 if dtype == np.float32 else 1e-12

    def loss_grads(use_naive):
        h = Tensor(h_data.copy(), dtype=dtype, requires_grad=True)
        sample_rng = np.random.default_rng(3)
        if use_naive:
            with naive_kernels():
                loss = sampled_reconstruction_loss(h, edges, 12, sample_rng)
                loss.backward()
        else:
            loss = sampled_reconstruction_loss(h, edges, 12, sample_rng)
            loss.backward()
        return float(loss.data), h.grad.copy()

    ref_loss, ref_grad = loss_grads(use_naive=True)
    got_loss, got_grad = loss_grads(use_naive=False)
    assert got_loss == pytest.approx(ref_loss, abs=atol)
    np.testing.assert_allclose(got_grad, ref_grad, atol=atol)


class TestReconstructionLosses:
    def test_dense_loss_prefers_true_adjacency(self, two_cliques_graph,
                                               rng):
        adj = two_cliques_graph.dense_adjacency()
        # Embeddings aligned with the cliques vs random embeddings.
        good = np.zeros((8, 2))
        good[:4, 0] = 3.0
        good[4:, 1] = 3.0
        good = good - 1.0
        bad = rng.normal(size=(8, 2))
        assert (dense_reconstruction_loss(Tensor(good), adj).item()
                < dense_reconstruction_loss(Tensor(bad), adj).item())

    def test_dense_loss_gradients(self, rng):
        adj = (rng.random((5, 5)) > 0.5).astype(float)
        h = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        assert_gradients_close(
            lambda t: dense_reconstruction_loss(t, adj), [h], atol=1e-4)

    def test_sampled_loss_runs_and_differentiates(self, two_cliques_graph,
                                                  rng):
        h = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        loss = sampled_reconstruction_loss(
            h, two_cliques_graph.edge_index, 8, rng)
        loss.backward()
        assert h.grad is not None
        assert loss.item() > 0

    def test_sampled_loss_empty_positives(self, rng):
        h = Tensor(rng.normal(size=(4, 2)))
        loss = sampled_reconstruction_loss(
            h, np.zeros((2, 0), dtype=np.int64), 4, rng)
        assert loss.item() == 0.0

    def test_sample_non_edges_avoids_edges(self, two_cliques_graph, rng):
        neg = sample_non_edges(two_cliques_graph.edge_index, 8, 6, rng)
        existing = set(zip(two_cliques_graph.edge_index[0].tolist(),
                           two_cliques_graph.edge_index[1].tolist()))
        assert neg.shape == (2, 6)
        for u, v in neg.T.tolist():
            assert (u, v) not in existing

    def test_pair_logits_and_probabilities(self, rng):
        h = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]))
        pairs = np.array([[0, 0], [1, 2]])
        logits = pair_logits(h, pairs)
        assert logits.data.tolist() == [1.0, -1.0]
        probs = link_probabilities(h, pairs)
        assert probs[0] > 0.5 > probs[1]
