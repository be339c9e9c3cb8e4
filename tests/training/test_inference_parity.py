"""No-grad serving parity across every graph-classification family.

The inference engine's core guarantee: for any model this library trains,
``Predictor`` logits are **bitwise identical** to the training-mode (grad
on, eval mode) forward — across pooling families, at both precisions, and
on the naive reference kernels.  Any fast-path divergence, however small,
fails these tests rather than silently skewing served predictions.
"""

import numpy as np
import pytest

from repro.core import AdamGNNGraphClassifier
from repro.datasets import load_graph_dataset
from repro.graph import GraphBatch
from repro.models import (DiffPoolClassifier, HierarchicalPoolClassifier,
                          SortPoolClassifier)
from repro.inference import Predictor
from repro.tensor import default_dtype, naive_kernels
from repro.training.graph_trainer import _model_forward


def _make_model(name, num_features, rng):
    if name in ("topk", "sagpool", "asap"):
        kind = {"topk": "topk", "sagpool": "sag", "asap": "asap"}[name]
        return HierarchicalPoolClassifier(kind, num_features, 2, hidden=8,
                                          rng=rng)
    if name == "diffpool":
        return DiffPoolClassifier(num_features, 2, hidden=8,
                                  clusters=(4, 2), rng=rng)
    if name == "sortpool":
        return SortPoolClassifier(num_features, 2, hidden=8, k=3, rng=rng)
    if name == "adamgnn":
        return AdamGNNGraphClassifier(num_features, 2, hidden=16,
                                      num_levels=2, rng=rng)
    raise AssertionError(name)


MODELS = ("topk", "sagpool", "asap", "diffpool", "sortpool", "adamgnn")


@pytest.fixture(scope="module")
def graphs():
    return load_graph_dataset("mutag", seed=0).graphs[:10]


def _batch_for(graphs, dtype):
    y = np.array([int(g.y) for g in graphs])
    return GraphBatch.from_graphs(graphs, y=y).astype(dtype)


def _reference(model, batch, dtype):
    model.eval()
    with default_dtype(dtype):
        return _model_forward(model, batch)[0].data.copy()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", MODELS)
def test_predictor_matches_grad_forward(name, dtype, graphs):
    batch = _batch_for(graphs, dtype)
    model = _make_model(name, batch.x.shape[1],
                        np.random.default_rng(11)).astype(dtype)
    reference = _reference(model, batch, dtype)
    predictor = Predictor(model)
    captured = predictor.predict_batch(batch)
    replayed = predictor.predict_batch(batch)
    assert (captured == reference).all(), f"{name} capture diverged"
    assert (replayed == reference).all(), f"{name} replay diverged"


@pytest.mark.parametrize("name", MODELS)
def test_predictor_matches_naive_kernels_float64(name, graphs):
    """The acceptance gate: float64, reference kernels, bit-for-bit."""
    batch = _batch_for(graphs, "float64")
    model = _make_model(name, batch.x.shape[1],
                        np.random.default_rng(11)).astype("float64")
    with naive_kernels():
        reference = _reference(model, batch, "float64")
        predictor = Predictor(model)
        captured = predictor.predict_batch(batch)
        replayed = predictor.predict_batch(batch)
    assert (captured == reference).all()
    assert (replayed == reference).all()


@pytest.mark.parametrize("name", ["adamgnn"])
def test_steady_state_zero_allocations(name, graphs):
    # Only AdamGNN captures structural stages; a repeated batch replays
    # its plan instead of rebuilding it.
    batch = _batch_for(graphs, "float32")
    model = _make_model(name, batch.x.shape[1],
                        np.random.default_rng(11)).astype("float32")
    predictor = Predictor(model)
    predictor.predict_batch(batch)
    captured = predictor.stats()
    assert captured["captured_structures"] > 0
    for _ in range(3):
        predictor.predict_batch(batch)
    stats = predictor.stats()
    assert stats["captured_structures"] == captured["captured_structures"]
    assert stats["structure_hits"] == (captured["structure_hits"]
                                       + 3 * captured["captured_structures"])
    assert stats["allocations"] == 0
