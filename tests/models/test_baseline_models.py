"""Baseline-model contract tests (node, link, graph families)."""

import numpy as np
import pytest

from repro.graph import GraphBatch
from repro.models import (DiffPoolClassifier, GINGraphClassifier,
                          GNNEncoder, GNNLinkPredictor, GNNNodeClassifier,
                          GraphUNet, HierarchicalPoolClassifier, MLPHead,
                          SortPoolClassifier, StructPoolClassifier,
                          ThreeWLGraphClassifier, batch_to_pairwise_tensor)
from repro.nn import cross_entropy
from repro.tensor import Tensor


def check_parameter_gradients(model, loss_fn, rng):
    """Every parameter's autograd gradient against central differences.

    Runs in float64 and eval mode (dropout off).  Each parameter first
    moves by 0.1·N(0,1): zero-initialised biases otherwise put
    pre-activations exactly on ReLU kinks, where finite differences and
    autograd legitimately disagree.  Then, per parameter, ⟨grad, v⟩ must
    match the central difference of the loss along a random direction v
    (step 1e-6, relative tolerance 1e-4).
    """
    eps = 1e-6
    model.astype(np.float64).eval()
    for param in model.parameters():
        param.data = param.data + 0.1 * rng.standard_normal(param.data.shape)
    model.zero_grad()
    loss_fn().backward()
    for name, param in model.named_parameters():
        v = rng.standard_normal(param.data.shape)
        grad = param.grad if param.grad is not None else 0.0
        analytic = float(np.sum(grad * v))
        base = param.data
        param.data = base + eps * v
        plus = loss_fn().item()
        param.data = base - eps * v
        minus = loss_fn().item()
        param.data = base
        numeric = (plus - minus) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-8), \
            f"{name}: autograd {analytic:.6g} vs finite difference " \
            f"{numeric:.6g}"


@pytest.fixture
def batch(two_cliques_graph, triangle_graph):
    g1 = two_cliques_graph.copy()
    g1.y = np.asarray(0)
    g2 = two_cliques_graph.copy()
    g2.y = np.asarray(1)
    return GraphBatch.from_graphs([g1, g2])


ALL_KINDS = ("gcn", "sage", "gat", "gin")


class TestNodeModels:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_classifier_forward_backward(self, kind, two_cliques_graph,
                                         rng):
        model = GNNNodeClassifier(kind, 4, 2, hidden=8, rng=rng)
        x = Tensor(two_cliques_graph.x)
        logits = model(x, two_cliques_graph.edge_index)
        assert logits.shape == (8, 2)
        loss = cross_entropy(logits, two_cliques_graph.y)
        loss.backward()
        assert all(np.isfinite(p.grad).all() for p in model.parameters()
                   if p.grad is not None)
        check_parameter_gradients(
            model, lambda: cross_entropy(
                model(x, two_cliques_graph.edge_index),
                two_cliques_graph.y), rng)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_link_predictor_embeddings(self, kind, two_cliques_graph, rng):
        model = GNNLinkPredictor(kind, 4, hidden=8, rng=rng)
        h = model(Tensor(two_cliques_graph.x),
                  two_cliques_graph.edge_index)
        assert h.shape == (8, 8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GNNNodeClassifier("transformer", 4, 2)

    def test_encoder_layer_count(self, rng):
        enc = GNNEncoder("gcn", 4, 8, 2, num_layers=3, rng=rng)
        assert len(enc.convs) == 3
        with pytest.raises(ValueError):
            GNNEncoder("gcn", 4, 8, 2, num_layers=0)

    def test_dropout_only_in_train_mode(self, two_cliques_graph):
        model = GNNNodeClassifier("gcn", 4, 2, hidden=8, dropout=0.9,
                                  rng=np.random.default_rng(0))
        model.eval()
        x = Tensor(two_cliques_graph.x)
        a = model(x, two_cliques_graph.edge_index).data
        b = model(x, two_cliques_graph.edge_index).data
        assert np.allclose(a, b)


class TestGraphUNet:
    def test_forward_shape(self, two_cliques_graph, rng):
        model = GraphUNet(4, 3, hidden=8, depth=2, rng=rng)
        out = model(Tensor(two_cliques_graph.x),
                    two_cliques_graph.edge_index)
        assert out.shape == (8, 3)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            GraphUNet(4, 2, depth=0)

    def test_backward_reaches_pools(self, two_cliques_graph, rng):
        model = GraphUNet(4, 2, hidden=8, depth=2, rng=rng)
        out = model(Tensor(two_cliques_graph.x),
                    two_cliques_graph.edge_index)
        cross_entropy(out, two_cliques_graph.y).backward()
        assert model.pools[0].projection.grad is not None

    def test_parameter_gradients_match_finite_differences(
            self, two_cliques_graph, rng):
        model = GraphUNet(4, 2, hidden=8, depth=2, rng=rng)
        x = Tensor(two_cliques_graph.x)
        check_parameter_gradients(
            model, lambda: cross_entropy(
                model(x, two_cliques_graph.edge_index),
                two_cliques_graph.y), rng)


class TestGraphModels:
    MODELS = [
        ("gin", lambda f, rng: GINGraphClassifier(f, 2, hidden=8, rng=rng)),
        ("topk", lambda f, rng: HierarchicalPoolClassifier(
            "topk", f, 2, hidden=8, rng=rng)),
        ("sag", lambda f, rng: HierarchicalPoolClassifier(
            "sag", f, 2, hidden=8, rng=rng)),
        ("sort", lambda f, rng: SortPoolClassifier(f, 2, hidden=8, k=3,
                                                   rng=rng)),
        ("diff", lambda f, rng: DiffPoolClassifier(f, 2, hidden=8,
                                                   clusters=(4, 2),
                                                   rng=rng)),
        ("struct", lambda f, rng: StructPoolClassifier(f, 2, hidden=8,
                                                       clusters=(4, 2),
                                                       rng=rng)),
        ("3wl", lambda f, rng: ThreeWLGraphClassifier(f, 2, hidden=4,
                                                      rng=rng)),
    ]

    @pytest.mark.parametrize("name,factory", MODELS)
    def test_forward_and_backward(self, name, factory, batch, rng):
        model = factory(4, rng)
        logits, aux = model(batch)
        assert logits.shape == (2, 2)
        loss = cross_entropy(logits, batch.y) + aux * 1.0
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads, f"{name} produced no gradients"
        assert all(np.isfinite(g).all() for g in grads)

        def full_loss():
            logits, aux = model(batch)
            return cross_entropy(logits, batch.y) + aux * 1.0

        check_parameter_gradients(model, full_loss, rng)

    def test_invalid_pool_kind(self):
        with pytest.raises(ValueError):
            HierarchicalPoolClassifier("mean", 4, 2)

    def test_diffpool_aux_positive(self, batch, rng):
        model = DiffPoolClassifier(4, 2, hidden=8, clusters=(4, 2), rng=rng)
        _, aux = model(batch)
        assert aux.item() > 0

    def test_mlp_head(self, rng):
        head = MLPHead(6, 4, 3, rng=rng)
        out = head(Tensor(np.ones((2, 6))))
        assert out.shape == (2, 3)


class TestThreeWL:
    def test_pairwise_tensor_layout(self, batch):
        tensor, mask = batch_to_pairwise_tensor(batch)
        b, n, _, c = tensor.shape
        assert b == 2
        assert c == batch.x.shape[1] + 1
        # Adjacency channel symmetric; features on the diagonal only.
        assert np.allclose(tensor[..., 0], tensor[..., 0].transpose(0, 2, 1))
        off_diag = tensor[0, :, :, 1:].copy()
        off_diag[np.arange(n), np.arange(n)] = 0.0
        assert np.allclose(off_diag, 0.0)

    def test_mask_matches_graph_sizes(self, batch):
        _, mask = batch_to_pairwise_tensor(batch)
        assert mask.sum(axis=1).tolist() == batch.graph_sizes().tolist()
