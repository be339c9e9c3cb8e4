"""Graph normalisation for convolution layers.

Implements the symmetric renormalisation of Eq. 1,
``D̂^{-1/2} Â D̂^{-1/2}`` with ``Â = A + I``, expressed as per-edge weights so
message passing can consume it directly.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..tensor.precision import ACCUM_DTYPE, get_default_dtype
from .graph import Graph


def normalize_edges(edge_index: np.ndarray, edge_weight: np.ndarray,
                    num_nodes: int, add_self_loops: bool = True,
                    validate: bool = True,
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Array-level form of :func:`gcn_normalization`.

    Used inside pooling pipelines where the coarsened graph exists only as
    ``(edge_index, edge_weight)`` arrays, not a :class:`Graph`.

    The degree ``d̂_i`` is computed from outgoing edges, which is only
    correct when the edge list is symmetric (every undirected edge appears
    in both directions, as all loaders and pooling stages in this library
    produce).  A one-directional edge list would silently yield asymmetric,
    wrong GCN weights — e.g. edge {0, 1} given only as ``[[0], [1]]`` gives
    node 1 a degree that misses the edge entirely.  ``validate=True``
    therefore checks the cheap necessary condition that weighted in- and
    out-degrees agree, and raises ``ValueError`` for asymmetric inputs
    (symmetrise with :meth:`Graph.to_undirected` first, or pass
    ``validate=False`` if the edge list is known-symmetric).
    """
    edge_index = np.asarray(edge_index, dtype=np.int64)
    edge_weight = np.asarray(edge_weight)
    # Degrees and inverse square roots are always formed in ACCUM_DTYPE;
    # the returned weights come back in the input's precision (float64
    # inputs are bitwise unchanged from the pre-policy path).
    out_dtype = gcn_weight_dtype(edge_weight)
    edge_weight = edge_weight.astype(ACCUM_DTYPE, copy=False)
    degree = out_degree(edge_index, edge_weight, num_nodes, validate)
    if add_self_loops:
        loops = np.arange(num_nodes, dtype=np.int64)
        edge_index = np.concatenate([edge_index, np.stack([loops, loops])],
                                    axis=1)
        edge_weight = np.concatenate(
            [edge_weight, np.ones(num_nodes, dtype=ACCUM_DTYPE)])
        # Each loop's unit weight summed last, as a bincount over the
        # concatenated list sums it.
        degree[:num_nodes] += 1.0
    inv_sqrt = inverse_sqrt(degree)
    src, dst = edge_index
    normalized = edge_weight * inv_sqrt[src] * inv_sqrt[dst]
    return edge_index, normalized.astype(out_dtype, copy=False)


def gcn_weight_dtype(edge_weight: np.ndarray) -> np.dtype:
    """Dtype of the normalised weights: the input's when it is a float
    dtype, else ``ACCUM_DTYPE``."""
    return (edge_weight.dtype
            if edge_weight.dtype in (np.float32, np.float64)
            else np.dtype(ACCUM_DTYPE))


def out_degree(edge_index: np.ndarray, edge_weight: np.ndarray,
               num_nodes: int, validate: bool = True) -> np.ndarray:
    """Weighted out-degree of every node, summed in edge order.

    ``validate`` raises ``ValueError`` when the weighted in-degrees
    disagree, the cheap necessary condition for a symmetric edge list
    (see :func:`normalize_edges`).
    """
    # (An empty bincount comes back int64 whatever the weights.)
    degree = np.bincount(edge_index[0], weights=edge_weight,
                         minlength=num_nodes).astype(edge_weight.dtype,
                                                     copy=False)
    if validate and edge_index.size:
        in_deg = np.bincount(edge_index[1], weights=edge_weight,
                             minlength=num_nodes)
        # allclose, not exact: pooled hyper-graph weights (S^T Â S) are
        # symmetric only up to floating-point summation order.
        if not (np.array_equal(degree, in_deg)
                or np.allclose(degree, in_deg, rtol=1e-6, atol=1e-9)):
            raise ValueError(
                "normalize_edges requires a symmetric edge list (every "
                "undirected edge in both directions): weighted in-degrees "
                "and out-degrees disagree. Symmetrise the graph (e.g. "
                "Graph.to_undirected()) or pass validate=False.")
    return degree


def inverse_sqrt(degree: np.ndarray) -> np.ndarray:
    """``degree ** -0.5`` where positive, else 0 (isolated nodes)."""
    inv_sqrt = np.zeros_like(degree)
    positive = degree > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    return inv_sqrt


def gcn_edge_weight_parts(edge_index: np.ndarray, edge_weight: np.ndarray,
                          num_nodes: int, validate: bool = True,
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Normalised GCN weights split into edge and self-loop parts.

    Returns ``(edge_part, loop_part)`` where ``edge_part[e]`` is the
    normalised weight of input edge ``e`` (original order preserved) and
    ``loop_part[i]`` the weight of node ``i``'s self-loop.  Because GCN
    degrees never cross connected components, the normalised weights of a
    block-diagonal batch are exactly the concatenation of its members'
    parts: ``concat(edge parts) ++ concat(loop parts)`` reproduces
    :func:`normalize_edges` on the collated batch bit for bit.  That makes
    this the per-graph precomputation behind minibatch structure
    composition (see ``repro.core.structure``).
    """
    num_edges = np.asarray(edge_index).shape[1]
    _, weight = normalize_edges(edge_index, edge_weight, num_nodes,
                                add_self_loops=True, validate=validate)
    return weight[:num_edges], weight[num_edges:]


def gcn_normalization(graph: Graph, add_self_loops: bool = True,
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(edge_index, edge_weight)`` for the normalised operator.

    Each directed edge ``(i, j)`` receives weight
    ``w_ij / sqrt(d̂_i d̂_j)`` where ``d̂`` is the weighted degree of
    ``Â = A + I`` (self-loops included when ``add_self_loops``).
    Weighted input graphs (the pooled hyper-graphs A_k) keep their weights
    inside the normalisation, which the paper relies on to carry relation
    strengths between hyper-nodes.
    """
    return normalize_edges(graph.edge_index, graph.edge_weight,
                           graph.num_nodes, add_self_loops=add_self_loops)


def row_normalize_features(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """L1-normalise feature rows (the Planetoid bag-of-words convention)."""
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        # One-time load-boundary promotion of integer/bool bag-of-words
        # counts; not a policy decision, loaders re-cast downstream.
        x = x.astype(np.float64)
    # Row sums accumulate in ACCUM_DTYPE; the result keeps the input's dtype.
    sums = np.abs(x).sum(axis=1, keepdims=True, dtype=ACCUM_DTYPE)
    return (x / np.maximum(sums, eps)).astype(x.dtype, copy=False)


def degree_features(graph: Graph, max_degree: int | None = None) -> np.ndarray:
    """One-hot degree features for graphs without node attributes.

    This is the standard GIN recipe for the Emails-style datasets with
    ``x = None``: node degree, capped at ``max_degree``, one-hot encoded.
    """
    degree = graph.to_undirected().degrees().astype(np.int64)
    if degree.size == 0:
        # Zero-node graph: degree.max() would raise on an empty array; the
        # feature width must still be well-defined for downstream stacking.
        cap = max(max_degree if max_degree is not None else 0, 1)
        return np.zeros((0, cap + 1), dtype=get_default_dtype())
    cap = int(degree.max()) if max_degree is None else max_degree
    cap = max(cap, 1)
    clipped = np.minimum(degree, cap)
    out = np.zeros((graph.num_nodes, cap + 1), dtype=get_default_dtype())
    out[np.arange(graph.num_nodes), clipped] = 1.0
    return out
