"""Graph Convolutional Network layer (Kipf & Welling 2017) — Eq. 1.

``H' = σ(D̂^{-1/2} Â D̂^{-1/2} H W)`` with ``Â = A + I``.  The layer caches
nothing: normalisation is supplied per call so the same module can run on
the original graph and on every pooled hyper-graph (whose edge weights
carry relation strengths, Section 3.2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import Graph, MessageFlowBlock, gcn_normalization
from ..nn import Linear, Module
from ..tensor import Tensor
from .message_passing import propagate, propagate_block


class GCNConv(Module):
    """One GCN convolution.

    Parameters
    ----------
    in_features, out_features:
        Feature dimensions of the affine transform ``W``.
    bias:
        Learn an additive bias after aggregation.
    rng:
        Weight-initialisation stream.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.linear = Linear(in_features, out_features, bias=bias, rng=rng)

    def forward(self, x: Tensor, edge_index: Optional[np.ndarray] = None,
                edge_weight: Optional[np.ndarray] = None,
                num_nodes: Optional[int] = None,
                block: Optional[MessageFlowBlock] = None) -> Tensor:
        """Apply the convolution.

        ``edge_index``/``edge_weight`` must already be GCN-normalised (use
        :meth:`from_graph` or :func:`repro.graph.gcn_normalization`); this
        keeps the expensive normalisation out of the training loop.  A
        ``block`` (whose weights are the normalised ones) replaces the
        three graph arguments: ``x`` holds its input rows and only its
        output rows are computed.
        """
        transformed = self.linear(x)
        if block is not None:
            return propagate_block(transformed, block)
        n = num_nodes if num_nodes is not None else x.shape[0]
        return propagate(transformed, edge_index, n, edge_weight=edge_weight)

    @staticmethod
    def normalize(graph: Graph):
        """Convenience wrapper returning the normalised operator of Eq. 1."""
        return gcn_normalization(graph)
