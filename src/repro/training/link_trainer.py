"""Trainer for link prediction.

Protocol (Section 4.1): 80/10/10 edge split with equal sampled non-edges;
the encoder sees only the training graph; scores are the inner-product
decoder ``σ(h_uᵀ h_v)``; metric is ROC-AUC.  The training loss is the
edge-sampled reconstruction loss (``L_task = L_R``), plus ``γ·L_KL`` for
AdamGNN (Eq. 7, LP form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..tensor.random import make_rng

from ..core import (AdamGNNOutput, link_probabilities,
                    sampled_reconstruction_loss, self_optimisation_loss)
from ..datasets import LinkTaskSplits, NodeDataset
from ..graph import degree_features
from ..nn import Module
from ..optim import clip_grad_norm
from ..tensor import Tensor, default_dtype, no_grad
from .config import TrainConfig
from .loop import EpochLog, adamgnn_loss, train_epochs
from .metrics import roc_auc


@dataclass
class LinkTrainResult(EpochLog):
    """Outcome of one link-prediction run."""

    test_auc: float
    val_auc: float


def _pair_auc(h, positives: np.ndarray, negatives: np.ndarray) -> float:
    """ROC-AUC of the decoder scores on a positive/negative pair set."""
    pairs = np.concatenate([positives, negatives], axis=1)
    labels = np.concatenate([
        np.ones(positives.shape[1], dtype=np.int8),
        np.zeros(negatives.shape[1], dtype=np.int8),
    ])
    return roc_auc(link_probabilities(h, pairs), labels)


class LinkPredictionTrainer:
    """Full-batch link-prediction training loop."""

    def __init__(self, config: Optional[TrainConfig] = None):
        self.config = config if config is not None else TrainConfig()

    def fit(self, model: Module, dataset: NodeDataset,
            splits: LinkTaskSplits) -> LinkTrainResult:
        cfg = self.config
        # Inputs move to the compute precision once, up front.
        train_graph = splits.train_graph.astype(cfg.dtype)
        features = (train_graph.x if train_graph.x is not None
                    else degree_features(train_graph, max_degree=32))
        x = Tensor(features, dtype=cfg.dtype)
        rng = make_rng(cfg.seed + 211)

        def encode():
            out = model(x, train_graph.edge_index, train_graph.edge_weight)
            if isinstance(out, AdamGNNOutput):
                return out.h, out
            return out, None

        def steps(epoch: int) -> Iterator[Tensor]:
            model.zero_grad()
            h, extra = encode()
            # L_task = L_R: BCE on training edges + fresh negatives.
            loss = adamgnn_loss(
                sampled_reconstruction_loss(
                    h, train_graph.edge_index, train_graph.num_nodes, rng,
                    positive_pairs=splits.train_edges),
                extra, cfg, self_optimisation_loss)
            loss.backward()
            yield loss

        log = train_epochs(
            model, cfg, steps,
            lambda: _pair_auc(encode()[0], splits.val_edges,
                              splits.val_negatives),
            clip_grad_norm)
        with default_dtype(cfg.dtype), no_grad():
            h, _ = encode()
        return LinkTrainResult(
            test_auc=_pair_auc(h, splits.test_edges, splits.test_negatives),
            val_auc=_pair_auc(h, splits.val_edges, splits.val_negatives),
            **vars(log))
