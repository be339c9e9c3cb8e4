"""GraphSAGE layer (Hamilton et al. 2017), mean aggregator.

``h_i' = W_self h_i + W_neigh · mean_{j ∈ N(i)} h_j`` — the configuration
the paper adopts for its GraphSAGE baseline ("an implementation with mean
pooling").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import MessageFlowBlock
from ..nn import Linear, Module
from ..tensor import Tensor, gather_rows
from .message_passing import propagate, propagate_block


class SAGEConv(Module):
    """GraphSAGE convolution with mean aggregation."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.lin_self = Linear(in_features, out_features, rng=rng)
        self.lin_neigh = Linear(in_features, out_features, bias=False, rng=rng)

    def forward(self, x: Tensor, edge_index: Optional[np.ndarray] = None,
                edge_weight: Optional[np.ndarray] = None,
                num_nodes: Optional[int] = None,
                block: Optional[MessageFlowBlock] = None) -> Tensor:
        """A ``block`` replaces the three graph arguments: ``x`` holds its
        input rows and only its output rows are computed."""
        if block is not None:
            neigh = propagate_block(x, block, reduce="mean")
            x_self = gather_rows(x, block.self_index)
        else:
            n = num_nodes if num_nodes is not None else x.shape[0]
            neigh = propagate(x, edge_index, n, edge_weight=edge_weight,
                              reduce="mean")
            x_self = x
        return self.lin_self(x_self) + self.lin_neigh(neigh)
