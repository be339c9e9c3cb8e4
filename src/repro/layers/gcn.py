"""Graph Convolutional Network layer (Kipf & Welling 2017) — Eq. 1.

``H' = σ(D̂^{-1/2} Â D̂^{-1/2} H W + b)`` with ``Â = A + I``.  The layer
caches nothing: normalisation is supplied per call so the same module can
run on the original graph and on every pooled hyper-graph (whose edge
weights carry relation strengths, Section 3.2).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from ..tensor.random import make_rng

from ..graph import Graph, MessageFlowBlock, gcn_normalization
from ..nn import Module, Parameter, init
from ..tensor import Tensor, affine
from .message_passing import propagate, propagate_block


class GCNConv(Module):
    """One GCN convolution, Eq. 1: ``D̂^-½ÂD̂^-½ X W + b``, the bias added
    after aggregation, so no row's bias is scaled by its degree.

    The product runs in the order with fewer multiply-adds for the call's
    shapes: transform first (``n_in·d_in·d_out + nnz·d_out``, also on a
    tie) or aggregate first (``nnz·d_in + n_out·d_in·d_out``).  On a full
    graph that is DGL's ``GraphConv`` rule (``d_in > d_out`` transforms
    first); a row-pruned block with far fewer output than input rows
    aggregates first, so its GEMM and weight gradient see the output rows
    only.

    Parameters
    ----------
    in_features, out_features:
        Feature dimensions of ``W``.
    bias:
        Learn the additive bias ``b``.
    rng:
        Weight-initialisation stream.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else make_rng(0)
        self.weight = Parameter(init.glorot_uniform(rng, in_features,
                                                    out_features))
        if bias:
            self.bias = Parameter(init.zeros((out_features,)))
        else:
            self.register_parameter("bias", None)

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
        n_in = x.shape[0]
        if block is not None:
            n_out, nnz = block.num_out, block.indices.shape[0]
            aggregate = partial(propagate_block, block=block)
        else:
            n_out = num_nodes if num_nodes is not None else n_in
            nnz = edge_index.shape[1]
            aggregate = partial(propagate, edge_index=edge_index,
                                num_nodes=n_out, edge_weight=edge_weight)
        d_in, d_out = self.weight.shape
        if (nnz * d_in + n_out * d_in * d_out
                < n_in * d_in * d_out + nnz * d_out):
            return affine(aggregate(x), self.weight, self.bias)
        out = aggregate(affine(x, self.weight, None))
        return out if self.bias is None else out + self.bias

    @staticmethod
    def normalize(graph: Graph):
        """Convenience wrapper returning the normalised operator of Eq. 1."""
        return gcn_normalization(graph)
