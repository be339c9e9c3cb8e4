"""Flat-GNN baselines for node-wise tasks (GCN, GraphSAGE, GAT, GIN) and
the Graph U-Net (TOPKPOOL) hierarchical baseline.

All follow the paper's settings: embedding dimension 64, the same input
features and training protocol as AdamGNN (Appendix A.4).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor.random import make_rng

from ..graph import RowPlan, build_row_plan, normalize_edges
from ..layers import GATConv, GCNConv, GINConv, SAGEConv, gin_mlp
from ..nn import Dropout, Linear, Module, ModuleList
from ..pooling import TopKPooling, unpool_topk
from ..tensor import Tensor, gather_rows, relu

#: Convolutions that consume the GCN-normalised operator.
_NEEDS_NORMALIZATION = {"gcn"}

#: Convolutions whose output rows depend only on their in-edges, so a
#: :class:`~repro.graph.RowPlan` can skip the rows nothing reads.  GIN is
#: absent: the BatchNorm in its MLP pools statistics over every row.
_ROW_PRUNABLE = {"gcn", "sage", "gat"}


def _make_conv(kind: str, in_features: int, out_features: int,
               rng: np.random.Generator) -> Module:
    """Construct one convolution layer of the requested family."""
    kind = kind.lower()
    if kind == "gcn":
        return GCNConv(in_features, out_features, rng=rng)
    if kind == "sage":
        return SAGEConv(in_features, out_features, rng=rng)
    if kind == "gat":
        return GATConv(in_features, out_features, rng=rng)
    if kind == "gin":
        # BatchNorm inside the MLP is essential for node-task GIN: the sum
        # aggregator's activations grow with node degree, and on hub-heavy
        # graphs the un-normalised variant diverges.
        return GINConv(gin_mlp(in_features, out_features, out_features,
                               rng=rng, batch_norm=True))
    raise ValueError(f"unknown convolution kind {kind!r}")


class GNNEncoder(Module):
    """Stack of homogeneous convolutions with ReLU + dropout between them.

    Used both as the node-classification trunk and as the link-prediction
    encoder for every flat baseline.
    """

    def __init__(self, kind: str, in_features: int, hidden: int,
                 out_features: int, num_layers: int = 2,
                 dropout: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng if rng is not None else make_rng(0)
        seeds = rng.integers(0, 2 ** 31, size=num_layers + 1)
        self.kind = kind.lower()
        dims = [in_features] + [hidden] * (num_layers - 1) + [out_features]
        self.convs = ModuleList(
            _make_conv(self.kind, dims[i], dims[i + 1],
                       make_rng(int(seeds[i])))
            for i in range(num_layers))
        self.dropout = Dropout(dropout,
                               rng=make_rng(int(seeds[-1])))

    def row_plan(self, edge_index: np.ndarray,
                 edge_weight: Optional[np.ndarray], num_nodes: int,
                 num_outputs: int,
                 indptr: Optional[np.ndarray] = None) -> Optional[RowPlan]:
        """Plan for computing only output rows ``0 .. num_outputs-1``.

        ``None`` when this stack must compute every row (GIN).  For GCN
        the plan normalises the raw ``edge_weight`` itself: degrees over
        the whole graph, exactly as in the unplanned forward, weights only
        for the entries a block keeps.  ``indptr`` is a sampled ego-net's
        row pointer (``SampledSubgraph.indptr``), which spares the plan
        its sort; see :func:`~repro.graph.build_row_plan`.
        """
        if self.kind not in _ROW_PRUNABLE:
            return None
        if edge_weight is None:
            edge_weight = np.ones(edge_index.shape[1], dtype=np.float64)  # structural edge weights are float64 by convention
        return build_row_plan(edge_index, edge_weight, num_nodes,
                              num_outputs, len(self.convs),
                              normalize=self.kind in _NEEDS_NORMALIZATION,
                              indptr=indptr)

    def forward(self, x: Tensor, edge_index: np.ndarray,
                edge_weight: Optional[np.ndarray] = None,
                plan: Optional[RowPlan] = None,
                num_outputs: Optional[int] = None,
                input_nodes: Optional[np.ndarray] = None,
                indptr: Optional[np.ndarray] = None) -> Tensor:
        """Every row's output, or only rows ``0 .. num_outputs-1``.

        The rows come from a ``plan`` built by :meth:`row_plan` on the
        same graph, or from ``num_outputs``, for which this call builds
        that plan itself (GIN then still returns every row), passing it
        ``indptr``.

        With ``input_nodes``, ``x`` is a larger feature matrix and node
        ``i`` of ``edge_index`` is its row ``input_nodes[i]``: the forward
        gathers only the rows its first layer reads, once (GraphStorm's
        ``forward(blocks, input_feats, input_nodes)``).
        """
        n = x.shape[0] if input_nodes is None else input_nodes.shape[0]
        if plan is None and num_outputs is not None:
            plan = self.row_plan(edge_index, edge_weight, n, num_outputs,
                                 indptr)
        if plan is not None:
            return self._forward_planned(x, plan, n, input_nodes)
        if input_nodes is not None:
            x = gather_rows(x, input_nodes)
        if edge_weight is None:
            edge_weight = np.ones(edge_index.shape[1], dtype=np.float64)  # structural edge weights are float64 by convention
        if self.kind in _NEEDS_NORMALIZATION:
            edge_index, edge_weight = normalize_edges(edge_index, edge_weight,
                                                      n)
        h = x
        last = len(self.convs) - 1
        for i, conv in enumerate(self.convs):
            h = conv(h, edge_index, edge_weight, num_nodes=n)
            if i != last:
                h = self.dropout(relu(h))
        return h

    def _forward_planned(self, x: Tensor, plan: RowPlan, n: int,
                         input_nodes: Optional[np.ndarray]) -> Tensor:
        if input_nodes is not None:
            h = gather_rows(x, input_nodes[plan.input_rows])
        elif plan.input_rows.shape[0] == n:
            h = x       # ascending subgraph ids, so n of them are all of x
        else:
            h = gather_rows(x, plan.input_rows)
        last = len(self.convs) - 1
        for i, (conv, block) in enumerate(zip(self.convs, plan.blocks)):
            h = conv(h, block=block)
            if i != last:
                h = self.dropout(relu(h), rows=block.rows, num_rows=n)
        return h


class GNNNodeClassifier(Module):
    """A flat-GNN node classifier: encoder whose last layer emits logits."""

    def __init__(self, kind: str, in_features: int, num_classes: int,
                 hidden: int = 64, num_layers: int = 2, dropout: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.encoder = GNNEncoder(kind, in_features, hidden, num_classes,
                                  num_layers=num_layers, dropout=dropout,
                                  rng=rng)

    def row_plan(self, edge_index: np.ndarray,
                 edge_weight: Optional[np.ndarray], num_nodes: int,
                 num_outputs: int,
                 indptr: Optional[np.ndarray] = None) -> Optional[RowPlan]:
        """See :meth:`GNNEncoder.row_plan`."""
        return self.encoder.row_plan(edge_index, edge_weight, num_nodes,
                                     num_outputs, indptr)

    def forward(self, x: Tensor, edge_index: np.ndarray,
                edge_weight: Optional[np.ndarray] = None,
                plan: Optional[RowPlan] = None,
                num_outputs: Optional[int] = None,
                input_nodes: Optional[np.ndarray] = None,
                indptr: Optional[np.ndarray] = None) -> Tensor:
        """See :meth:`GNNEncoder.forward`."""
        return self.encoder(x, edge_index, edge_weight, plan=plan,
                            num_outputs=num_outputs,
                            input_nodes=input_nodes, indptr=indptr)


class GNNLinkPredictor(Module):
    """A flat-GNN link predictor: encoder + inner-product decoder."""

    def __init__(self, kind: str, in_features: int, hidden: int = 64,
                 num_layers: int = 2, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.encoder = GNNEncoder(kind, in_features, hidden, hidden,
                                  num_layers=num_layers, dropout=dropout,
                                  rng=rng)

    def forward(self, x: Tensor, edge_index: np.ndarray,
                edge_weight: Optional[np.ndarray] = None) -> Tensor:
        return self.encoder(x, edge_index, edge_weight)


class GraphUNet(Module):
    """Graph U-Net (Gao & Ji 2019) — the TOPKPOOL baseline for node tasks.

    Encoder: conv → pool, repeated ``depth`` times; decoder: unpool → conv
    with skip connections from the matching encoder stage.
    """

    def __init__(self, in_features: int, out_features: int, hidden: int = 64,
                 depth: int = 2, ratio: float = 0.5, dropout: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if depth < 1:
            raise ValueError("depth must be >= 1")
        rng = rng if rng is not None else make_rng(0)
        seeds = rng.integers(0, 2 ** 31, size=3 * depth + 3)
        self.depth = depth
        self.input_conv = GCNConv(in_features, hidden,
                                  rng=make_rng(int(seeds[0])))
        self.pools = ModuleList(
            TopKPooling(hidden, ratio=ratio,
                        rng=make_rng(int(seeds[1 + i])))
            for i in range(depth))
        self.down_convs = ModuleList(
            GCNConv(hidden, hidden,
                    rng=make_rng(int(seeds[1 + depth + i])))
            for i in range(depth))
        self.up_convs = ModuleList(
            GCNConv(hidden, hidden,
                    rng=make_rng(int(seeds[1 + 2 * depth + i])))
            for i in range(depth))
        self.head = Linear(hidden, out_features,
                           rng=make_rng(int(seeds[-2])))
        self.dropout = Dropout(dropout,
                               rng=make_rng(int(seeds[-1])))

    def forward(self, x: Tensor, edge_index: np.ndarray,
                edge_weight: Optional[np.ndarray] = None) -> Tensor:
        n = x.shape[0]
        if edge_weight is None:
            edge_weight = np.ones(edge_index.shape[1], dtype=np.float64)  # structural edge weights are float64 by convention
        batch = np.zeros(n, dtype=np.int64)

        norm_e, norm_w = normalize_edges(edge_index, edge_weight, n)
        h = relu(self.input_conv(self.dropout(x), norm_e, norm_w,
                                 num_nodes=n))

        skips = [h]
        perms = []
        sizes = [n]
        edges_k, weight_k, batch_k = edge_index, edge_weight, batch
        for pool, conv in zip(self.pools, self.down_convs):
            h, edges_k, weight_k, batch_k, perm = pool(
                h, edges_k, weight_k, batch_k, 1)
            m = h.shape[0]
            norm_e, norm_w = normalize_edges(edges_k, weight_k, m)
            h = relu(conv(h, norm_e, norm_w, num_nodes=m))
            perms.append(perm)
            sizes.append(m)
            skips.append(h)

        # Decoder: walk back up, re-placing nodes at their original slots.
        for i in range(self.depth - 1, -1, -1):
            h = unpool_topk(h, perms[i], sizes[i])
            h = h + skips[i]
            # The unpooled graph structure is the pre-pool structure.
            edges_i, weight_i = self._structure_at(edge_index, edge_weight,
                                                   perms[:i], sizes[0])
            norm_e, norm_w = normalize_edges(edges_i, weight_i, sizes[i])
            h = relu(self.up_convs[i](h, norm_e, norm_w, num_nodes=sizes[i]))
        return self.head(h)

    @staticmethod
    def _structure_at(edge_index: np.ndarray, edge_weight: np.ndarray,
                      perms, num_nodes: int):
        """Edge list of the graph after applying ``perms`` sequentially."""
        from ..pooling import filter_graph
        edges, weight = edge_index, edge_weight
        n = num_nodes
        for perm in perms:
            edges, weight, _ = filter_graph(edges, weight, perm, n)
            n = perm.shape[0]
        return edges, weight
