"""Fitness scoring (Eq. 2).

``f_φ(v_i, v_j) = f_φ^s(v_i, v_j) × f_φ^c(v_i, v_j)`` where

* ``f_φ^s`` is a GAT-style attention
  ``exp(aᵀ σ(W h_j ‖ W h_i)) / Σ_{v_r ∈ N_j^λ} exp(aᵀ σ(W h_j ‖ W h_r))`` —
  note the normalisation runs over the *member's* λ-neighbourhood, i.e.
  over all candidate egos competing for node ``j``;
* ``f_φ^c = sigmoid(h_jᵀ · h_i)`` adds the dot-product linearity term
  motivated by neural collaborative filtering (He et al. 2017).

The per-ego fitness is the mean over members,
``φ_i = (1/|N_i^λ|) Σ_j φ_ij``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor.random import make_rng

from ..nn import Linear, Module, Parameter, init
from ..tensor import (Tensor, gather_rows, leaky_relu, pair_dot,
                      segment_mean, segment_softmax, sigmoid)
from .egonet import EgoNetworks


class FitnessScorer(Module):
    """Computes per-pair fitness φ_ij and per-ego fitness φ_i.

    Parameters
    ----------
    in_features:
        Dimension of the node representations ``h``.
    hidden:
        Output dimension of the shared transform ``W`` (defaults to
        ``in_features``, matching the paper's single weight matrix).
    use_linearity:
        Include the ``f_φ^c`` sigmoid dot-product factor.  Exposed so the
        ablation bench can switch it off.
    """

    def __init__(self, in_features: int, hidden: Optional[int] = None,
                 use_linearity: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else make_rng(0)
        hidden = hidden if hidden is not None else in_features
        self.transform = Linear(in_features, hidden, bias=False, rng=rng)
        self.attention = Parameter(
            init.glorot_uniform(rng, 2 * hidden, 1, shape=(2 * hidden,)))
        self.use_linearity = use_linearity

    def pair_scores(self, h: Tensor, egos: EgoNetworks,
                    relations: Optional[np.ndarray] = None) -> Tensor:
        """φ_ij for every (ego i, member j) pair, in pair-list order.

        ``relations`` is the per-pair relation id a typed scorer selects
        its attention by (see ``repro.core.hetero``); this scorer has one
        attention vector and takes none.
        """
        if egos.num_pairs == 0:
            return Tensor(np.zeros(0, dtype=h.data.dtype),
                          dtype=h.data.dtype)
        # aᵀ σ(W h_j ‖ W h_i) with σ applied before the projection is the
        # published form; split the dot product into member/ego halves.
        logits = self.attention_logits(leaky_relu(self.transform(h)), egos,
                                       relations)
        # Normalise over the member's λ-neighbourhood: all pairs that share
        # the same member node compete (the Σ_{v_r ∈ N_j^λ} denominator).
        f_s = segment_softmax(logits, egos.member, egos.num_nodes)
        if not self.use_linearity:
            return f_s
        # Fused gather-gather-dot: one graph node instead of three, no
        # (P, d) member/ego tensors retained in the graph.
        dots = pair_dot(h, egos.member, egos.ego)
        f_c = sigmoid(dots)
        return f_s * f_c

    def attention_logits(self, act: Tensor, egos: EgoNetworks,
                         relations: Optional[np.ndarray]) -> Tensor:
        """Per-pair ``aᵀ σ(W h_j ‖ W h_i)`` from the activated ``σ(W h)``.

        σ is elementwise, so the per-pair gather commutes with it and
        with the projection: compute both halves once per *node*, then
        gather per pair — O(N·d + P) instead of O(P·d), bit-identical.
        """
        if relations is not None:
            raise ValueError("this fitness scorer has no relation types")
        d = act.shape[-1]
        left = act @ self.attention[:d]
        right = act @ self.attention[d:]
        return gather_rows(left, egos.member) + gather_rows(right, egos.ego)

    def forward(self, h: Tensor, egos: EgoNetworks,
                relations: Optional[np.ndarray] = None
                ) -> Tuple[Tensor, Tensor]:
        """Return ``(φ_pairs, φ_nodes)``.

        ``φ_nodes[i]`` is the ego-network fitness φ_i (zero for isolated
        nodes, which have no members and are never selected).
        """
        phi_pairs = self.pair_scores(h, egos, relations)
        phi_nodes = segment_mean(phi_pairs.reshape(-1, 1), egos.ego,
                                 egos.num_nodes).reshape(-1)
        return phi_pairs, phi_nodes
