"""Adaptive Graph Pooling — the AGP operator of Figure 1 (Section 3.2).

One :class:`AdaptiveGraphPooling` call performs the full level-k step:

1. ego-network formation (λ-hop pair lists);
2. fitness scoring via :class:`~repro.core.fitness.FitnessScorer` (Eq. 2);
3. local-maximum ego selection + retained nodes → assignment ``S_k``;
4. hyper-node feature initialisation by self-attention (Eq. 3);
5. connectivity maintenance ``A_k = S_kᵀ Â_{k-1} S_k``.

No pooling-ratio hyper-parameter anywhere — the selection adapts to the
graph, which is the paper's headline claim for this operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..tensor.random import make_rng

from ..graph.cache import StructureCache
from ..nn import Linear, Module, Parameter, init
from ..tensor import (Tensor, gather_rows, gather_scale_segment_sum,
                      leaky_relu_project, segment_mean, segment_softmax)
from ..tensor.workspace import ws_captured
from .egonet import EgoNetworks, build_ego_networks, one_hop_neighbors
from .fitness import FitnessScorer
from .selection import (Assignment, build_assignment,
                        hyper_graph_connectivity, select_egos)


@dataclass
class PooledLevel:
    """Everything produced by one AGP application."""

    x: Tensor                    #: hyper-node initial features X_k
    edge_index: np.ndarray       #: hyper-graph connectivity A_k (COO)
    edge_weight: np.ndarray      #: A_k weights (relation strengths)
    assignment: Assignment       #: S_k
    batch: Optional[np.ndarray]  #: hyper-node → graph id (batched mode)
    phi_nodes: np.ndarray        #: per-node fitness (detached, diagnostics)

    @property
    def num_hyper(self) -> int:
        return self.assignment.num_hyper


class HyperNodeFeatures(Module):
    """Eq. 3: self-attention initialisation of hyper-node features.

    ``X_k(i) = H_{k-1}(i) + Σ_{j ∈ c_λ(i)\\{i}} α_ij H_{k-1}(j)`` with
    ``α_ij = softmax_j( aᵀ σ( W(φ_ij·h_j) ‖ h_i ) )`` — the contribution of
    a member is its fitness-scaled representation re-weighted against all
    other members of the same ego-network.
    """

    def __init__(self, in_features: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else make_rng(0)
        self.transform = Linear(in_features, in_features, bias=False, rng=rng)
        self.attention = Parameter(
            init.glorot_uniform(rng, 2 * in_features, 1,
                                shape=(2 * in_features,)))

    @staticmethod
    def _pair_structure(egos: EgoNetworks, assignment: Assignment):
        """``(pair_idx, members, cols, pair egos)`` of the selected pairs.

        Pure topology given the selection outcome, so serving plans
        capture it (stable ``cols``/``pair_idx`` arrays also keep the
        identity-keyed segment plans hitting across replays).
        """
        selected = assignment.selected
        is_selected = np.zeros(egos.num_nodes, dtype=bool)
        is_selected[selected] = True
        col_of_ego = -np.ones(egos.num_nodes, dtype=np.int64)
        col_of_ego[selected] = np.arange(selected.shape[0])
        pair_idx = np.flatnonzero(is_selected[egos.ego])
        return (pair_idx, egos.member[pair_idx],
                col_of_ego[egos.ego[pair_idx]], egos.ego[pair_idx])

    def forward(self, h: Tensor, phi_pairs: Tensor, egos: EgoNetworks,
                assignment: Assignment) -> Tensor:
        selected = assignment.selected
        n_sel = selected.shape[0]
        d = h.shape[-1]

        pair_idx, members, cols, pair_egos = ws_captured(
            lambda: self._pair_structure(egos, assignment))

        ego_features = gather_rows(h, selected)
        if pair_idx.size:
            phi = phi_pairs[pair_idx].reshape(-1, 1)
            member_h = gather_rows(h, members)
            scaled = self.transform(member_h * phi)
            a_left = self.attention[:d]
            a_right = self.attention[d:]
            # The ego half of the attention logit is per-node: σ and the
            # projection commute with the per-pair gather, so compute it
            # once per node and gather per pair — O(n·d + P) instead of
            # O(P·d), bit-identical (same trick as the fitness scorer).
            right_nodes = leaky_relu_project(h, a_right)
            logits = leaky_relu_project(scaled, a_left) \
                + gather_rows(right_nodes, pair_egos)
            alpha = segment_softmax(logits, cols, n_sel)
            pooled = gather_scale_segment_sum(h, members, alpha, cols, n_sel)
            ego_features = ego_features + pooled

        if assignment.retained.size:
            retained_features = gather_rows(h, assignment.retained)
            from ..tensor import concat
            return concat([ego_features, retained_features], axis=0)
        return ego_features


class AdaptiveGraphPooling(Module):
    """The complete AGP operator for one granularity level.

    Parameters
    ----------
    in_features:
        Dimension of the incoming node representations.
    radius:
        λ, the ego-network radius (the paper uses 1).
    use_linearity:
        Forwarded to :class:`FitnessScorer` (ablation hook).
    """

    def __init__(self, in_features: int, radius: int = 1,
                 use_linearity: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else make_rng(0)
        seeds = rng.integers(0, 2 ** 31, size=2)
        self.radius = radius
        self.fitness = FitnessScorer(in_features, use_linearity=use_linearity,
                                     rng=make_rng(int(seeds[0])))
        self.features = HyperNodeFeatures(
            in_features, rng=make_rng(int(seeds[1])))

    def forward(self, h: Tensor, edge_index: np.ndarray,
                edge_weight: np.ndarray,
                batch: Optional[np.ndarray] = None,
                cache: Optional[StructureCache] = None,
                egos: Optional[EgoNetworks] = None,
                neighbors: Optional[EgoNetworks] = None,
                edge_type: Optional[np.ndarray] = None) -> PooledLevel:
        """Coarsen one level; see the module docstring for the steps.

        ``cache`` memoises the (purely structural) ego-network pair lists;
        the model passes its :class:`StructureCache` for the level-0 graph,
        whose structure is constant across epochs.  ``egos``/``neighbors``
        short-circuit the formation entirely with precomputed pair lists
        (the minibatch composition path, ``repro.core.structure``) and
        must describe the same graph as ``edge_index``.  Pooled-level
        graphs depend on learned fitness and are never passed either.
        ``edge_type`` (level 0 of a typed graph) gives the typed fitness
        scorer its per-pair relation ids, memoised like the ego-networks.
        """
        n = h.shape[0]
        if egos is not None:
            if egos.radius != self.radius or egos.num_nodes != n:
                raise ValueError(
                    f"precomputed ego-networks (radius {egos.radius}, "
                    f"{egos.num_nodes} nodes) do not match this pooler "
                    f"(radius {self.radius}, {n} nodes)")
            if neighbors is None:
                neighbors = (egos if self.radius == 1
                             else one_hop_neighbors(edge_index, n))
        elif cache is not None:
            egos = cache.get(
                "ego-networks", (edge_index,), (n, self.radius),
                lambda: build_ego_networks(edge_index, n,
                                           radius=self.radius))
            neighbors = (egos if self.radius == 1 else cache.get(
                "ego-networks", (edge_index,), (n, 1),
                lambda: one_hop_neighbors(edge_index, n)))
        else:
            # Pooled-level structure: fresh every training step (it
            # tracks the learned fitness, and no workspace is active in
            # grad mode), but captured by a serving plan — for a frozen
            # model it is a pure function of the batch, so replays skip
            # the sparse reachability products.
            egos = ws_captured(
                lambda: build_ego_networks(edge_index, n,
                                           radius=self.radius))
            neighbors = (egos if self.radius == 1 else ws_captured(
                lambda: one_hop_neighbors(edge_index, n)))
        relations = None
        if edge_type is not None:
            def _relations():
                return self.fitness.pair_types(egos, edge_index, edge_type)
            relations = (_relations() if cache is None else cache.get(
                "pair-relations", (edge_index, edge_type),
                (n, self.radius, self.fitness.num_relations), _relations))
        phi_pairs = self.fitness.pair_scores(h, egos, relations)
        # The selection outcome is the data-dependent control flow of
        # the forward; a serving plan records it (with the assembled
        # S_k and the per-node fitness diagnostic, neither of which
        # carries gradient for a frozen model) and replays the same
        # Assignment.  In training the selection moves with the
        # learned fitness every step — and the unpooling path
        # differentiates through ``assignment.values`` — so the stage
        # runs fresh per step (ws_captured is a passthrough in grad
        # mode).
        def _select():
            phi_nodes = segment_mean(phi_pairs.reshape(-1, 1), egos.ego,
                                     egos.num_nodes).reshape(-1)
            selected = select_egos(phi_nodes.data, neighbors,
                                   egos.sizes())
            return (build_assignment(phi_pairs, egos, selected),
                    phi_nodes.data.copy())
        assignment, phi_node_values = ws_captured(_select)
        x_k = self.features(h, phi_pairs, egos, assignment)
        # Detached for a frozen model, so a serving replay changes no
        # value anywhere; in training the weights of A_k track the
        # learned fitness, so the sparse product reruns every step.
        new_edges, new_weight = ws_captured(
            lambda: hyper_graph_connectivity(assignment, edge_index,
                                             edge_weight))
        new_batch = (None if batch is None
                     else ws_captured(lambda: batch[assignment.seed_of_col]))
        return PooledLevel(x=x_k, edge_index=new_edges,
                           edge_weight=new_weight, assignment=assignment,
                           batch=new_batch, phi_nodes=phi_node_values)
