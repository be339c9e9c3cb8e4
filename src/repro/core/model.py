"""The AdamGNN model (Algorithm 1) and its task heads.

One :class:`AdamGNN` forward pass:

1. primary node representation ``H_0 = ReLU(GCN_0(X))`` (Eq. 1);
2. for each granularity level k: adaptive graph pooling (Section 3.2), a
   level-k GCN on the hyper-graph, and unpooling of ``H_k`` back to the
   original nodes (Section 3.3);
3. flyback aggregation ``H = H_0 + Σ β_k Ĥ_k`` (Eq. 4);
4. optionally, the graph readout ``h_g = READOUT({H, Ĥ_1, …, Ĥ_K})``.

Pooling stops early when a level collapses below two hyper-nodes or runs
out of edges, so ``num_levels`` is an upper bound — the operator itself
stays hyper-parameter-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..tensor.random import make_rng

from ..graph import StructureCache, normalize_edges
from ..layers import GCNConv, mean_max_readout
from ..nn import Dropout, Linear, Module, ModuleList
from ..tensor import Tensor, relu
from ..tensor.workspace import ws_captured
from .flyback import FlybackAggregator
from .pooling import AdaptiveGraphPooling, PooledLevel
from .structure import BatchStructure
from .unpooling import unpool


@dataclass
class AdamGNNOutput:
    """Everything a task head may need from one forward pass."""

    h: Tensor                       #: flyback-enhanced node representations
    h0: Tensor                      #: primary representations (Eq. 1)
    level_messages: List[Tensor]    #: Ĥ_1 … Ĥ_K on the original nodes
    beta: Tensor                    #: (K, n) flyback attention (Figure 2)
    levels: List[PooledLevel] = field(default_factory=list)
    graph_repr: Optional[Tensor] = None

    @property
    def num_levels(self) -> int:
        """Number of levels actually constructed (≤ configured K)."""
        return len(self.levels)

    def level1_egos(self) -> np.ndarray:
        """Selected ego node ids at level 1 (inputs to L_KL, Eq. 5)."""
        if not self.levels:
            return np.zeros(0, dtype=np.int64)
        return self.levels[0].assignment.selected


class AdamGNN(Module):
    """Adaptive Multi-grained GNN encoder.

    Parameters
    ----------
    in_features:
        Input feature dimension.
    hidden:
        Representation dimension ``d`` (64 in the paper).
    num_levels:
        Maximum number of granularity levels ``K`` (2–5 in the paper).
    radius:
        Ego-network radius λ (paper default 1).
    dropout:
        Dropout on the input features during training.
    use_flyback:
        Disable to reproduce the "no flyback" ablation of Table 5
        (``H = H_0``; unpooled messages still feed the graph readout).
    use_linearity:
        Forwarded to the fitness scorer (``f_φ^c`` ablation).

    The two level-0 parts are attributes a configuration may replace:
    ``input_conv`` (given the raw edges and ``edge_type`` on a typed
    graph) and ``poolers[0].fitness`` (given each pair's relation id);
    :class:`~repro.core.hetero.HeteroAdamGNN` is that configuration.
    """

    def __init__(self, in_features: int, hidden: int = 64,
                 num_levels: int = 3, radius: int = 1,
                 dropout: float = 0.0, use_flyback: bool = True,
                 use_linearity: bool = True, normalize_unpool: bool = False,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if num_levels < 1:
            raise ValueError(f"num_levels must be >= 1, got {num_levels}")
        rng = rng if rng is not None else make_rng(0)
        seeds = rng.integers(0, 2 ** 31, size=2 * num_levels + 3)

        self.num_levels = num_levels
        self.radius = radius
        self.use_flyback = use_flyback
        self.normalize_unpool = normalize_unpool
        self.input_conv = GCNConv(in_features, hidden,
                                  rng=make_rng(int(seeds[0])))
        self.poolers = ModuleList(
            AdaptiveGraphPooling(hidden, radius=radius,
                                 use_linearity=use_linearity,
                                 rng=make_rng(int(seeds[1 + k])))
            for k in range(num_levels))
        self.level_convs = ModuleList(
            GCNConv(hidden, hidden,
                    rng=make_rng(
                        int(seeds[1 + num_levels + k])))
            for k in range(num_levels))
        self.flyback = FlybackAggregator(
            hidden, rng=make_rng(int(seeds[-2])))
        self.dropout = Dropout(dropout,
                               rng=make_rng(int(seeds[-1])))
        self.hidden = hidden
        # Plain attribute (not a Parameter/Module), so it stays out of
        # state_dict and checkpoints.  Memoises level-0 structure — GCN
        # normalisation and ego-network pair lists — across epochs; see
        # repro.graph.cache.
        self.structure_cache = StructureCache()

    def forward(self, x: Tensor, edge_index: np.ndarray,
                edge_weight: Optional[np.ndarray] = None,
                batch: Optional[np.ndarray] = None,
                num_graphs: Optional[int] = None,
                structure: Optional["BatchStructure"] = None,
                edge_type: Optional[np.ndarray] = None,
                ) -> AdamGNNOutput:
        """Encode a graph (or a block-diagonal batch of graphs).

        ``edge_index``/``edge_weight`` are the *raw* structural edges; GCN
        normalisation happens internally at every level.  ``structure``
        optionally supplies precomputed level-0 structure (normalised
        edges + ego-network pair lists composed per batch, see
        ``repro.core.structure``) so the ``normalize`` and ``egonet``
        phases become lookups; it must describe exactly this input.
        ``edge_type`` (one relation id per edge) is level-0 structure of
        a typed graph: a relational input conv reads it with the raw
        edges, and the level-1 fitness scorer per pair
        (``repro.core.hetero``).  This method is the one level loop.
        """
        n = x.shape[0]
        cache = self.structure_cache
        if structure is not None and structure.num_nodes != n:
            raise ValueError(
                f"precomputed structure is for {structure.num_nodes} "
                f"nodes, input has {n}")
        if edge_weight is None:
            # A stable ones array (not a fresh np.ones each call) so the
            # identity-keyed structure/plan caches hit on epochs 2..N.
            edge_weight = cache.unit_edge_weights(edge_index,
                                                  dtype=x.data.dtype)

        x = self.dropout(x)
        # Level-0 structure is constant across epochs → precomputed
        # (minibatch composition) or memoised (full-batch identity).  A
        # relational input conv reads the raw edges and their types.
        if edge_type is not None:
            conv_e, conv_w = edge_index, edge_type
        elif structure is not None:
            conv_e, conv_w = (structure.norm_edge_index,
                              structure.norm_edge_weight)
        else:
            conv_e, conv_w = cache.normalized_edges(edge_index,
                                                    edge_weight, n)
        h0 = relu(self.input_conv(x, conv_e, conv_w, num_nodes=n))

        levels: List[PooledLevel] = []
        messages: List[Tensor] = []
        h = h0
        edges_k, weight_k, batch_k = edge_index, edge_weight, batch
        for k, (pooler, conv) in enumerate(zip(self.poolers,
                                               self.level_convs)):
            if h.shape[0] < 2 or edges_k.shape[1] == 0:
                break
            # Only level 0 sees the cache / precomputed pair lists:
            # pooled-level structure depends on learned fitness scores and
            # must recompute every epoch.
            level0 = k == 0
            level = pooler(
                h, edges_k, weight_k, batch=batch_k,
                cache=cache if level0 else None,
                egos=structure.egos
                if level0 and structure is not None else None,
                neighbors=structure.neighbors
                if level0 and structure is not None else None,
                edge_type=edge_type if level0 else None)
            m = level.num_hyper
            if m >= h.shape[0] or m < 1:
                # No coarsening progress — extra levels would only repeat
                # the same structure.
                break
            # Purely structural given the level's connectivity, so a
            # serving replay reuses it with the captured edges; in
            # training the pooled weights move with the fitness and
            # this renormalises fresh every step.
            norm_e, norm_w = ws_captured(
                lambda: normalize_edges(level.edge_index,
                                        level.edge_weight, m))
            h = relu(conv(level.x, norm_e, norm_w, num_nodes=m))
            levels.append(level)
            messages.append(unpool([lvl.assignment for lvl in levels], h,
                                   normalize=self.normalize_unpool))
            edges_k, weight_k, batch_k = (level.edge_index,
                                          level.edge_weight, level.batch)
            if m < 2:
                break

        if self.use_flyback:
            combined, beta = self.flyback(h0, messages)
        else:
            combined = h0
            beta = Tensor(np.zeros((len(messages), n),
                                   dtype=h0.data.dtype),
                          dtype=h0.data.dtype)

        graph_repr = None
        if batch is not None:
            if num_graphs is None:
                num_graphs = int(batch.max()) + 1 if batch.size else 0
            graph_repr = mean_max_readout(combined, batch, num_graphs)
            for message in messages:
                graph_repr = graph_repr + mean_max_readout(
                    message, batch, num_graphs)

        return AdamGNNOutput(h=combined, h0=h0, level_messages=messages,
                             beta=beta, levels=levels, graph_repr=graph_repr)


class AdamGNNNodeClassifier(Module):
    """AdamGNN encoder + linear softmax head for node classification."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_levels: int = 3, radius: int = 1, dropout: float = 0.5,
                 use_flyback: bool = True, use_linearity: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else make_rng(0)
        seeds = rng.integers(0, 2 ** 31, size=2)
        self.encoder = AdamGNN(in_features, hidden=hidden,
                               num_levels=num_levels, radius=radius,
                               dropout=dropout, use_flyback=use_flyback,
                               use_linearity=use_linearity,
                               rng=make_rng(int(seeds[0])))
        self.head = Linear(hidden, num_classes,
                           rng=make_rng(int(seeds[1])))

    def forward(self, x: Tensor, edge_index: np.ndarray,
                edge_weight: Optional[np.ndarray] = None
                ) -> Tuple[Tensor, AdamGNNOutput]:
        out = self.encoder(x, edge_index, edge_weight)
        return self.head(out.h), out


class AdamGNNLinkPredictor(Module):
    """AdamGNN encoder with an inner-product edge decoder.

    For link prediction the paper sets ``L = L_R + γ L_KL`` (the task loss
    *is* the reconstruction loss); the decoder is ``σ(h_uᵀ h_v)``.
    """

    def __init__(self, in_features: int, hidden: int = 64,
                 num_levels: int = 3, radius: int = 1, dropout: float = 0.0,
                 use_flyback: bool = True, use_linearity: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.encoder = AdamGNN(in_features, hidden=hidden,
                               num_levels=num_levels, radius=radius,
                               dropout=dropout, use_flyback=use_flyback,
                               use_linearity=use_linearity, rng=rng)

    def forward(self, x: Tensor, edge_index: np.ndarray,
                edge_weight: Optional[np.ndarray] = None) -> AdamGNNOutput:
        return self.encoder(x, edge_index, edge_weight)


class AdamGNNGraphClassifier(Module):
    """AdamGNN encoder + MLP head for graph classification.

    The readout is ``[mean ‖ max]`` of the flyback representation plus the
    per-level unpooled messages (Algorithm 1 line 25), so the head input is
    ``2·hidden``.
    """

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_levels: int = 3, radius: int = 1, dropout: float = 0.0,
                 use_flyback: bool = True, use_linearity: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else make_rng(0)
        seeds = rng.integers(0, 2 ** 31, size=3)
        self.encoder = AdamGNN(in_features, hidden=hidden,
                               num_levels=num_levels, radius=radius,
                               dropout=dropout, use_flyback=use_flyback,
                               use_linearity=use_linearity,
                               rng=make_rng(int(seeds[0])))
        self.head_hidden = Linear(2 * hidden, hidden,
                                  rng=make_rng(int(seeds[1])))
        self.head_out = Linear(hidden, num_classes,
                               rng=make_rng(int(seeds[2])))

    def forward(self, x: Tensor, edge_index: np.ndarray,
                edge_weight: np.ndarray, batch: np.ndarray,
                num_graphs: int,
                structure: Optional[BatchStructure] = None,
                ) -> Tuple[Tensor, AdamGNNOutput]:
        out = self.encoder(x, edge_index, edge_weight, batch=batch,
                           num_graphs=num_graphs, structure=structure)
        logits = self.head_out(relu(self.head_hidden(out.graph_repr)))
        return logits, out
