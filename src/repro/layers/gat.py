"""Graph Attention Network layer (Velickovic et al. 2018), single head.

``α_ij = softmax_j( LeakyReLU(aᵀ [W h_i ‖ W h_j]) )`` over the in-edges of
``i``; the paper's GAT baseline uses one attention head, which is what this
layer implements (multi-head would be a thin wrapper).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor.random import make_rng

from ..graph import MessageFlowBlock
from ..nn import Linear, Module, Parameter, init
from ..tensor import (Tensor, gather_rows, leaky_relu, segment_softmax,
                      segment_sum)


class GATConv(Module):
    """Single-head graph attention convolution.

    The attention logit ``aᵀ[Wh_i ‖ Wh_j]`` is split into
    ``a_dstᵀ Wh_i + a_srcᵀ Wh_j`` — algebraically identical and linear in
    node count rather than edge count for the transform step.
    """

    def __init__(self, in_features: int, out_features: int,
                 negative_slope: float = 0.2,
                 add_self_loops: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else make_rng(0)
        self.linear = Linear(in_features, out_features, bias=False, rng=rng)
        self.att_src = Parameter(init.glorot_uniform(rng, out_features, 1,
                                                     shape=(out_features,)))
        self.att_dst = Parameter(init.glorot_uniform(rng, out_features, 1,
                                                     shape=(out_features,)))
        self.bias = Parameter(init.zeros((out_features,)))
        self.negative_slope = negative_slope
        self.add_self_loops = add_self_loops

    def forward(self, x: Tensor, edge_index: Optional[np.ndarray] = None,
                edge_weight: Optional[np.ndarray] = None,
                num_nodes: Optional[int] = None,
                block: Optional[MessageFlowBlock] = None) -> Tensor:
        """A ``block`` replaces the three graph arguments: ``x`` holds its
        input rows and only its output rows are computed."""
        if block is None:
            n = num_nodes if num_nodes is not None else x.shape[0]
            self_index = np.arange(n, dtype=np.int64)
        else:
            n = block.num_out
            edge_index = block.edge_index
            self_index = block.self_index
        if self.add_self_loops:
            edge_index = np.concatenate(
                [edge_index,
                 np.stack([self_index, np.arange(n, dtype=np.int64)])],
                axis=1)
        src, dst = edge_index

        h = self.linear(x)
        logit_src = h @ self.att_src
        logit_dst = h @ self.att_dst
        if block is not None:
            logit_dst = gather_rows(logit_dst, self_index)
        logits = leaky_relu(gather_rows(logit_src, src)
                            + gather_rows(logit_dst, dst),
                            self.negative_slope)
        alpha = segment_softmax(logits, dst, n)
        messages = gather_rows(h, src) * alpha.reshape(-1, 1)
        out = segment_sum(messages, dst, n)
        return out + self.bias
