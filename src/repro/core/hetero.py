"""Heterogeneous-graph extension of AdamGNN.

The paper's conclusion names extending AdamGNN to heterogeneous networks
as future work; this module provides that extension:

* :class:`RelationalGCNConv` — an R-GCN-style convolution with one weight
  matrix per edge type (plus a self transform), the standard substrate for
  typed graphs;
* :class:`TypedFitnessScorer` — Eq. 2 generalised with a *per-edge-type*
  attention vector, so the relation strength between an ego and a member
  depends on how they are connected;
* :class:`HeteroAdamGNN` — :class:`~repro.core.model.AdamGNN` configured
  with the R-GCN as its input conv and the typed scorer as its level-1
  fitness.  It runs the one level loop of ``AdamGNN.forward``, called
  with ``edge_type=``; pooled hyper-graphs collapse edge types (a
  hyper-edge aggregates relations of several types), so levels ≥ 1 are
  the homogeneous AGP unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor.random import make_rng

from ..nn import Linear, Module, ModuleList, Parameter, init
from ..tensor import Tensor, gather_rows, segment_mean
from .egonet import EgoNetworks
from .fitness import FitnessScorer
from .model import AdamGNN


class RelationalGCNConv(Module):
    """R-GCN convolution: ``h_i' = W0 h_i + Σ_r Σ_{j∈N_r(i)} W_r h_j / c_ir``.

    Parameters
    ----------
    in_features, out_features:
        Transform dimensions (shared across relations).
    num_relations:
        Number of edge types.
    """

    def __init__(self, in_features: int, out_features: int,
                 num_relations: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if num_relations < 1:
            raise ValueError("num_relations must be >= 1")
        rng = rng if rng is not None else make_rng(0)
        seeds = rng.integers(0, 2 ** 31, size=num_relations + 1)
        self.num_relations = num_relations
        self.self_loop = Linear(in_features, out_features,
                                rng=make_rng(int(seeds[0])))
        self.relation_linears = ModuleList(
            Linear(in_features, out_features, bias=False,
                   rng=make_rng(int(seeds[1 + r])))
            for r in range(num_relations))

    def forward(self, x: Tensor, edge_index: np.ndarray,
                edge_type: np.ndarray,
                num_nodes: Optional[int] = None) -> Tensor:
        n = num_nodes if num_nodes is not None else x.shape[0]
        edge_type = np.asarray(edge_type)
        if not np.issubdtype(edge_type.dtype, np.integer):
            raise TypeError(f"edge_type must hold integer relation ids, "
                            f"got dtype {edge_type.dtype}")
        if edge_type.shape[0] != edge_index.shape[1]:
            raise ValueError("edge_type must have one entry per edge")
        out = self.self_loop(x)
        for r, linear in enumerate(self.relation_linears):
            mask = edge_type == r
            if not mask.any():
                continue
            src = edge_index[0][mask]
            dst = edge_index[1][mask]
            messages = gather_rows(linear(x), src)
            out = out + segment_mean(messages, dst, n)
        return out


class TypedFitnessScorer(FitnessScorer):
    """Eq. 2 with a per-edge-type attention vector.

    The pair (ego i, member j) is scored with attention column ``a_r`` of
    the relation r of edge i→j; pairs with no such edge (reachable only
    through multi-hop paths at λ > 1, or only by the reverse edge) fall
    back to a shared column.  Only that lookup differs from
    :class:`FitnessScorer`: the per-node halves, the member-wise softmax
    and the type-agnostic f_φ^c term are its code path.
    """

    def __init__(self, in_features: int, num_relations: int,
                 rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else make_rng(0)
        super().__init__(in_features, rng=rng)
        self.num_relations = num_relations
        # One attention column per relation plus the multi-hop fallback.
        self.attention = Parameter(init.glorot_uniform(
            rng, 2 * in_features, num_relations + 1))

    def pair_types(self, egos: EgoNetworks, edge_index: np.ndarray,
                   edge_type: np.ndarray) -> np.ndarray:
        """Relation of each (ego, member) pair; fallback id for non-edges.

        A pair joined by edges of several relations takes the last one in
        edge order.  One stable sort of the ``u·n + v`` edge keys puts
        each key's edges in edge order, so the last of a run is the
        rightmost ``searchsorted`` hit.
        """
        edge_type = np.asarray(edge_type, dtype=np.int64)
        if edge_type.size and not 0 <= edge_type.min() <= edge_type.max() \
                < self.num_relations:
            raise ValueError(f"edge_type ids must lie in "
                             f"[0, {self.num_relations})")
        n = egos.num_nodes
        src, dst = np.asarray(edge_index, dtype=np.int64)
        keys = src * n + dst
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        query = egos.ego * n + egos.member
        pos = np.searchsorted(sorted_keys, query, side="right") - 1
        found = pos >= 0
        found[found] = sorted_keys[pos[found]] == query[found]
        types = np.full(egos.num_pairs, self.num_relations, dtype=np.int64)
        types[found] = edge_type[order[pos[found]]]
        return types

    def attention_logits(self, act: Tensor, egos: EgoNetworks,
                         relations: Optional[np.ndarray]) -> Tensor:
        """Per-pair logits, each from its pair's relation column.

        The member and ego halves are computed per node for every column,
        ``(n, R+1)`` each, and flattened so one gather per half picks each
        pair's own relation: O(n·d·(R+1) + P).
        """
        if relations is None:
            raise ValueError("a typed fitness scorer needs the per-pair "
                             "relation ids (pass edge_type to the model)")
        d = act.shape[-1]
        width = self.num_relations + 1
        left = (act @ self.attention[:d]).reshape(-1)
        right = (act @ self.attention[d:]).reshape(-1)
        return (gather_rows(left, egos.member * width + relations)
                + gather_rows(right, egos.ego * width + relations))


class HeteroAdamGNN(AdamGNN):
    """AdamGNN for heterogeneous (typed-edge) graphs.

    :class:`AdamGNN` with an R-GCN input conv and the typed fitness scorer
    at level 1; call it as ``model(x, edge_index, edge_type=edge_type)``.
    Pooled levels collapse edge types and are the homogeneous AGP.
    """

    def __init__(self, in_features: int, num_relations: int,
                 hidden: int = 64, num_levels: int = 2,
                 rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else make_rng(0)
        seeds = rng.integers(0, 2 ** 31, size=3)
        super().__init__(in_features, hidden=hidden, num_levels=num_levels,
                         rng=make_rng(int(seeds[0])))
        self.num_relations = num_relations
        self.input_conv = RelationalGCNConv(
            in_features, hidden, num_relations,
            rng=make_rng(int(seeds[1])))
        self.poolers[0].fitness = TypedFitnessScorer(
            hidden, num_relations, rng=make_rng(int(seeds[2])))
