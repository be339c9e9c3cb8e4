"""An AdamGNN step builds no scipy sparse-matrix object.

Every sparse structure of a step — the level-0 ego-networks at
collation, the pooled ego-networks, ``S_kᵀ Â S_k`` and the
message-passing operators — runs scipy's kernels on raw arrays
(``repro.graph.blocks``).  Each test below drives one entry point with
the compressed- and COO-matrix constructors patched to raise, so a
reintroduced ``csr_matrix``/``coo_matrix`` (or an expression that makes
one, such as ``.T`` or ``@`` on a matrix) fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _compressed, _coo

import repro.core
from repro.core import AdamGNNGraphClassifier
from repro.core.structure import DatasetStructures
from repro.datasets import GraphDataset, load_graph_dataset, split_graphs
from repro.inference import Predictor
from repro.optim import Adam
from repro.tensor import default_dtype
from repro.training import GraphClassificationTrainer, TrainConfig
from repro.training.capture import model_rngs


class ScipyMatrixBuilt(AssertionError):
    pass


def _refuse(self, *args, **kwargs):
    raise ScipyMatrixBuilt(f"{type(self).__name__} constructed")


@pytest.fixture
def no_scipy_matrices(monkeypatch):
    monkeypatch.setattr(_compressed._cs_matrix, "__init__", _refuse)
    monkeypatch.setattr(_coo._coo_base, "__init__", _refuse)


@pytest.fixture(scope="module")
def dataset():
    full = load_graph_dataset("mutag", seed=0)
    train, val, test = split_graphs(24, np.random.default_rng(0))
    return GraphDataset("mutag-mini", full.graphs[:24], 2,
                        full.num_features, train_index=train,
                        val_index=val, test_index=test)


def _model(dataset, radius):
    return AdamGNNGraphClassifier(dataset.num_features, 2, hidden=16,
                                  num_levels=3, radius=radius,
                                  rng=np.random.default_rng(0))


def test_core_does_not_import_scipy():
    for path in sorted(Path(repro.core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy"
                           for name in names), path.name


def test_patch_refuses_both_constructors(no_scipy_matrices):
    with pytest.raises(ScipyMatrixBuilt):
        sp.csr_matrix(np.eye(2))
    with pytest.raises(ScipyMatrixBuilt):
        sp.coo_matrix(np.eye(2))


def _train_steps(dataset, radius, capture, epochs):
    model = _model(dataset, radius)
    cfg = TrainConfig(batch_size=8, seed=0, capture=capture)
    trainer = GraphClassificationTrainer(cfg)
    model.astype(cfg.dtype)
    optimizer = Adam(model.parameters(), lr=cfg.lr)
    rng = np.random.default_rng(0)
    rngs = [rng] + model_rngs(model)
    structures = trainer._structures_for(model, dataset)
    with default_dtype(cfg.dtype):
        model.train()
        for _ in range(epochs):
            for batch, structure in trainer._batches(
                    structures, dataset, dataset.train_index):
                model.zero_grad()
                trainer._train_step(model, batch, structure, rng, rngs)
                optimizer.step()
    return trainer


@pytest.mark.parametrize("radius", [1, 2])
def test_uncaptured_training_step(dataset, radius, no_scipy_matrices):
    _train_steps(dataset, radius, capture=False, epochs=1)


def test_captured_training_steps_replay(dataset, no_scipy_matrices):
    # Batches come in index order, so keys recur: mark, capture, replay.
    trainer = _train_steps(dataset, 1, capture=True, epochs=3)
    stats = trainer.cache_stats()["training_tape"]
    assert stats["hits"] > 0
    assert stats["fallbacks"] == 0


def test_predict_on_unseen_graphs(dataset, no_scipy_matrices):
    model = _model(dataset, 1).eval()
    labels = Predictor(model).predict(dataset, dataset.test_index)
    assert labels.shape == dataset.test_index.shape


@pytest.mark.parametrize("radius", [1, 2])
def test_dataset_structure(dataset, radius, no_scipy_matrices):
    structures = DatasetStructures(dataset.graphs, radius=radius)
    part = structures.structure(0)
    assert part.egos.radius == radius
