"""Trainer for link prediction.

Protocol (Section 4.1): 80/10/10 edge split with equal sampled non-edges;
the encoder sees only the training graph; scores are the inner-product
decoder ``σ(h_uᵀ h_v)``; metric is ROC-AUC.  The training loss is the
edge-sampled reconstruction loss (``L_task = L_R``), plus ``γ·L_KL`` for
AdamGNN (Eq. 7, LP form).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..tensor.random import make_rng

from ..core import (AdamGNNOutput, link_probabilities,
                    sampled_reconstruction_loss, self_optimisation_loss)
from ..datasets import LinkTaskSplits, NodeDataset
from ..graph import degree_features
from ..nn import Module
from ..optim import Adam, clip_grad_norm
from ..tensor import Tensor, default_dtype, no_grad
from .config import TrainConfig
from .early_stopping import EarlyStopping
from .metrics import roc_auc


@dataclass
class LinkTrainResult:
    """Outcome of one link-prediction run."""

    test_auc: float
    val_auc: float
    epochs_run: int
    seconds: float
    history: List[float] = field(default_factory=list)


def _pair_scores(h, positives: np.ndarray, negatives: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Decoder scores and labels for a positive/negative pair set."""
    pairs = np.concatenate([positives, negatives], axis=1)
    labels = np.concatenate([
        np.ones(positives.shape[1], dtype=np.int8),
        np.zeros(negatives.shape[1], dtype=np.int8),
    ])
    return link_probabilities(h, pairs), labels


class LinkPredictionTrainer:
    """Full-batch link-prediction training loop."""

    def __init__(self, config: Optional[TrainConfig] = None):
        self.config = config if config is not None else TrainConfig()

    def _encode(self, model: Module, x: Tensor, edge_index: np.ndarray,
                edge_weight: np.ndarray):
        out = model(x, edge_index, edge_weight)
        if isinstance(out, AdamGNNOutput):
            return out.h, out
        return out, None

    def fit(self, model: Module, dataset: NodeDataset,
            splits: LinkTaskSplits) -> LinkTrainResult:
        cfg = self.config
        # Inputs and model move to the compute precision once, up front,
        # before Adam snapshots its moment buffers (as the node trainer).
        train_graph = splits.train_graph.astype(cfg.dtype)
        model.astype(cfg.dtype)
        features = (train_graph.x if train_graph.x is not None
                    else degree_features(train_graph, max_degree=32))
        x = Tensor(features, dtype=cfg.dtype)
        rng = make_rng(cfg.seed + 211)

        optimizer = Adam(model.parameters(), lr=cfg.lr,
                         weight_decay=cfg.weight_decay)
        stopper = EarlyStopping(patience=cfg.patience, mode="max")
        history: List[float] = []
        start = time.perf_counter()
        epochs_run = 0

        with default_dtype(cfg.dtype):
            for epoch in range(cfg.epochs):
                epochs_run = epoch + 1
                model.train()
                model.zero_grad()
                h, extra = self._encode(model, x, train_graph.edge_index,
                                        train_graph.edge_weight)
                # L_task = L_R: BCE on training edges + fresh negatives.
                loss = sampled_reconstruction_loss(
                    h, train_graph.edge_index, train_graph.num_nodes,
                    rng, positive_pairs=splits.train_edges)
                if (isinstance(extra, AdamGNNOutput) and cfg.use_kl
                        and cfg.gamma):
                    loss = loss + self_optimisation_loss(
                        h, extra.level1_egos()) * cfg.gamma
                loss.backward()
                if cfg.grad_clip:
                    clip_grad_norm(model.parameters(), cfg.grad_clip)
                optimizer.step()

                model.eval()
                with no_grad():
                    h, _ = self._encode(model, x, train_graph.edge_index,
                                        train_graph.edge_weight)
                    scores, labels = _pair_scores(h, splits.val_edges,
                                                  splits.val_negatives)
                    val_auc = roc_auc(scores, labels)
                history.append(val_auc)
                if cfg.verbose:
                    print(f"epoch {epoch:3d}  loss {loss.item():.4f}  "
                          f"val-auc {val_auc:.4f}")
                if stopper.step(val_auc, model):
                    break

        stopper.restore(model)
        model.eval()
        with default_dtype(cfg.dtype), no_grad():
            h, _ = self._encode(model, x, train_graph.edge_index,
                                train_graph.edge_weight)
        val_scores, val_labels = _pair_scores(h, splits.val_edges,
                                              splits.val_negatives)
        test_scores, test_labels = _pair_scores(h, splits.test_edges,
                                                splits.test_negatives)
        return LinkTrainResult(
            test_auc=roc_auc(test_scores, test_labels),
            val_auc=roc_auc(val_scores, val_labels),
            epochs_run=epochs_run,
            seconds=time.perf_counter() - start,
            history=history)
