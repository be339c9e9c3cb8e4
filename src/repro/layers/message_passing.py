"""Message-passing primitives shared by every convolution layer.

A spatial GNN layer decomposes into *gather* (lift node states onto edges),
*message* (transform, possibly weight), and *reduce* (segment aggregation
back to target nodes).  :func:`propagate` wires those steps together so the
concrete layers stay close to their published equations.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..graph.blocks import MessageFlowBlock, canonical_csr
from ..tensor import (Tensor, fast_kernels_enabled, gather_rows, segment_max,
                      segment_mean, segment_sum)
from ..tensor._segment_plans import _sptools
from ..tensor.workspace import ws_captured

#: Supported reduction names → segment reducers.
_REDUCERS = {
    "sum": segment_sum,
    "mean": segment_mean,
    "max": segment_max,
}


def _adjacency_for(src: np.ndarray, dst: np.ndarray,
                   edge_weight: Optional[np.ndarray],
                   num_out: int, num_in: int, dtype=np.float64):
    """The CSR operator of the weighted edges, built per call (a serving
    replay gets back the one its capture pass built).  The weights are
    cast to the node states' dtype: a float64 operator applied to float32
    states would silently promote the whole layer back to float64."""
    def build():
        data = (np.ones(src.shape[0], dtype=dtype)
                if edge_weight is None
                else np.asarray(edge_weight).astype(dtype, copy=False))
        return canonical_csr(src, dst, data, num_out, num_in)
    return ws_captured(build)


def _spmm(x: Tensor, indptr: np.ndarray, indices: np.ndarray,
          data: np.ndarray) -> Tensor:
    """``A @ x`` for a constant CSR operator; backward is ``Aᵀ @ grad``.

    One sparse-dense product replaces the gather → weight → segment-sum
    chain, which materialised three ``(E, d)`` temporaries per call.  The
    kernels are scipy's own, called on raw arrays into a zeroed buffer.  Backward reads the same arrays as CSC, which is
    ``Aᵀ``: every input row sums its terms in ascending output-row order,
    the order a row-sorted CSR of ``Aᵀ`` uses, so no transpose is built.
    """
    num_out = indptr.shape[0] - 1
    num_in, n_vecs = x.data.shape
    dense = np.ascontiguousarray(x.data)
    out_data = np.zeros((num_out, n_vecs), dtype=dense.dtype)
    _sptools.csr_matvecs(num_out, num_in, n_vecs, indptr, indices, data,
                         dense.ravel(), out_data.ravel())

    def backward(grad: np.ndarray) -> None:
        grad = np.ascontiguousarray(grad, dtype=data.dtype)
        gx = np.zeros((num_in, n_vecs), dtype=data.dtype)
        _sptools.csc_matvecs(num_in, num_out, n_vecs, indptr, indices,
                             data, grad.ravel(), gx.ravel())
        x._accumulate(gx)

    return x._make_child(out_data, (x,), backward)


def propagate(x: Tensor, edge_index: np.ndarray, num_nodes: int,
              edge_weight: Optional[np.ndarray] = None,
              reduce: str = "sum",
              message_fn: Optional[Callable[[Tensor], Tensor]] = None) -> Tensor:
    """One round of message passing.

    Parameters
    ----------
    x:
        ``(n, d)`` node states.
    edge_index:
        ``(2, E)`` array; messages flow from row 0 (source) to row 1 (target).
    num_nodes:
        Number of output rows (``n``).
    edge_weight:
        Optional per-edge scalar weights multiplied into the messages (this
        is how the GCN normalisation and the weighted hyper-graph edges of
        the paper enter).
    reduce:
        ``"sum"``, ``"mean"`` or ``"max"``.
    message_fn:
        Optional transform applied to gathered source states before
        weighting (rarely needed; transforms are usually cheaper on nodes).
    """
    if reduce not in _REDUCERS:
        raise ValueError(f"unknown reduce {reduce!r}; choose from {sorted(_REDUCERS)}")
    src, dst = edge_index
    if (reduce == "sum" and message_fn is None and x.data.ndim == 2
            and fast_kernels_enabled()):
        # Weighted-sum aggregation is a sparse matrix product; the edge
        # weights carry no gradient (they are detached normalisations or
        # relation strengths), so the operator is a constant.
        return _spmm(x, *_adjacency_for(src, dst, edge_weight, num_nodes,
                                        x.data.shape[0],
                                        dtype=x.data.dtype))
    messages = gather_rows(x, src)
    if message_fn is not None:
        messages = message_fn(messages)
    if edge_weight is not None:
        weights = Tensor(np.asarray(edge_weight).reshape(-1, 1),
                         dtype=x.data.dtype)
        messages = messages * weights
    return _REDUCERS[reduce](messages, dst, num_nodes)


def propagate_block(x: Tensor, block: MessageFlowBlock,
                    reduce: str = "sum") -> Tensor:
    """:func:`propagate` over one :class:`~repro.graph.MessageFlowBlock`.

    ``x`` holds the block's input rows; the result holds its output rows,
    each aggregated over its in-edges with the block's edge weights.
    """
    if reduce == "sum" and x.data.ndim == 2 and fast_kernels_enabled():
        return _spmm(x, block.indptr, block.indices,
                     block.data.astype(x.data.dtype, copy=False))
    return propagate(x, block.edge_index, block.num_out,
                     edge_weight=block.data, reduce=reduce)
