"""Top-k pooling (Gao & Ji 2019, "Graph U-Nets").

Nodes are scored by projection onto a learnable vector ``p``; the top
``ceil(ratio·n)`` nodes per graph survive, gated by ``tanh(score)`` so the
score receives gradient.  The complementary *unpooling* used by the Graph
U-Net (and by the paper's TOPKPOOL node-task baseline) re-places the kept
nodes at their original indices and fills dropped nodes with zeros.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor.random import make_rng

from ..nn import Module, Parameter, init
from ..tensor import Tensor, gather_rows, segment_sum, tanh
from .common import filter_graph, topk_per_graph


class TopKPooling(Module):
    """Select the top ``ratio`` fraction of nodes per graph.

    Returns (x, edge_index, edge_weight, batch, perm) where ``perm`` holds
    the original indices of the surviving nodes — needed both for U-Net
    unpooling and for the coverage analysis of Figure 3.
    """

    def __init__(self, in_features: int, ratio: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        rng = rng if rng is not None else make_rng(0)
        self.ratio = ratio
        self.projection = Parameter(
            init.glorot_uniform(rng, in_features, 1, shape=(in_features,)))

    def scores(self, x: Tensor) -> Tensor:
        """Projection scores ``x·p / ‖p‖`` (pre-gate).

        ‖p‖ stays in the autograd graph, as in Graph U-Nets and PyG's
        ``TopKPooling``, so p's gradient carries the −(x·p)p/‖p‖³ term.
        """
        p = self.projection
        return (x * p).sum(axis=-1) / (p * p).sum() ** 0.5

    def forward(self, x: Tensor, edge_index: np.ndarray,
                edge_weight: np.ndarray, batch: np.ndarray,
                num_graphs: int
                ) -> Tuple[Tensor, np.ndarray, np.ndarray, np.ndarray,
                           np.ndarray]:
        score = self.scores(x)
        keep = topk_per_graph(score.data, batch, num_graphs, self.ratio)
        gate = tanh(gather_rows(score, keep)).reshape(-1, 1)
        new_x = gather_rows(x, keep) * gate
        new_edges, new_weight, _ = filter_graph(edge_index, edge_weight,
                                                keep, x.shape[0])
        return new_x, new_edges, new_weight, batch[keep], keep


def unpool_topk(x_pooled: Tensor, perm: np.ndarray,
                num_nodes: int) -> Tensor:
    """Graph U-Net unpooling: scatter pooled rows back to original slots."""
    return segment_sum(x_pooled, perm, num_nodes)
