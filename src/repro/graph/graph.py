"""Attributed-graph container.

A :class:`Graph` mirrors the role of ``torch_geometric.data.Data``: node
features ``x``, a ``(2, E)`` integer ``edge_index`` in COO layout, optional
``edge_weight`` and labels ``y``.  Undirected graphs store both directions of
every edge explicitly (the message-passing convention).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp


class Graph:
    """An attributed graph G = (V, E, X) as defined in Section 3.1.

    Parameters
    ----------
    edge_index:
        ``(2, E)`` int array; row 0 holds source nodes, row 1 targets.
    x:
        Optional ``(n, f)`` float feature matrix.  Graphs without node
        features (the Emails dataset) pass ``None`` and models fall back to
        identity/one-hot features.
    y:
        Optional labels — ``(n,)`` for node tasks or a scalar for a graph
        label.
    num_nodes:
        Node count; inferred from ``x`` or ``edge_index`` when omitted.
    edge_weight:
        Optional ``(E,)`` float weights (defaults to 1 everywhere).
    """

    def __init__(self, edge_index: np.ndarray,
                 x: Optional[np.ndarray] = None,
                 y: Optional[np.ndarray] = None,
                 num_nodes: Optional[int] = None,
                 edge_weight: Optional[np.ndarray] = None):
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.size == 0:
            edge_index = edge_index.reshape(2, 0)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError(f"edge_index must have shape (2, E), got {edge_index.shape}")
        self.edge_index = edge_index
        if x is None:
            self.x = None
        else:
            x = np.asarray(x)
            # float32/float64 features pass through at their precision (the
            # compute-dtype policy decides which one a trainer wants);
            # anything else (ints, bools) is promoted to float64.
            self.x = (x if x.dtype in (np.float32, np.float64)
                      else x.astype(np.float64))  # load-boundary promotion of int/bool features
        self.y = None if y is None else np.asarray(y)

        if num_nodes is None:
            if self.x is not None:
                num_nodes = self.x.shape[0]
            elif edge_index.size:
                num_nodes = int(edge_index.max()) + 1
            else:
                num_nodes = 0
        self.num_nodes = int(num_nodes)

        if edge_index.size and int(edge_index.max()) >= self.num_nodes:
            raise ValueError("edge_index references a node >= num_nodes")
        if self.x is not None and self.x.shape[0] != self.num_nodes:
            raise ValueError(f"x has {self.x.shape[0]} rows for {self.num_nodes} nodes")

        if edge_weight is None:
            self.edge_weight = np.ones(edge_index.shape[1], dtype=np.float64)  # structural edge weights are float64 by convention
        else:
            edge_weight = np.asarray(edge_weight)
            self.edge_weight = (edge_weight
                                if edge_weight.dtype in (np.float32,
                                                         np.float64)
                                else edge_weight.astype(np.float64))  # load-boundary promotion of int weights
            if self.edge_weight.shape != (edge_index.shape[1],):
                raise ValueError("edge_weight must have one entry per edge")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edge entries (an undirected edge counts twice)."""
        return self.edge_index.shape[1]

    @property
    def num_features(self) -> int:
        return 0 if self.x is None else self.x.shape[1]

    def degrees(self) -> np.ndarray:
        """Out-degree of each node (equals in-degree for undirected graphs)."""
        return np.bincount(self.edge_index[0], minlength=self.num_nodes).astype(np.float64)  # detached structural counts

    def __repr__(self) -> str:
        return (f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
                f"num_features={self.num_features})")

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def adjacency(self, weighted: bool = True) -> sp.csr_matrix:
        """Sparse adjacency matrix (CSR)."""
        values = (self.edge_weight if weighted
                  else np.ones(self.num_edges, dtype=self.edge_weight.dtype))
        return sp.csr_matrix((values, (self.edge_index[0], self.edge_index[1])),
                             shape=(self.num_nodes, self.num_nodes))

    def dense_adjacency(self, weighted: bool = True) -> np.ndarray:
        """Dense adjacency matrix (for the reconstruction loss and DiffPool)."""
        return np.asarray(self.adjacency(weighted=weighted).todense())

    def to_networkx(self):
        """Export to an undirected ``networkx.Graph`` (attributes dropped)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        g.add_edges_from(zip(self.edge_index[0].tolist(),
                             self.edge_index[1].tolist()))
        return g

    @staticmethod
    def from_networkx(g, x: Optional[np.ndarray] = None,
                      y: Optional[np.ndarray] = None) -> "Graph":
        """Build a :class:`Graph` from a networkx graph (made undirected)."""
        nodes = list(g.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        pairs = []
        for u, v in g.edges():
            pairs.append((index[u], index[v]))
            pairs.append((index[v], index[u]))
        edge_index = (np.asarray(pairs, dtype=np.int64).T
                      if pairs else np.zeros((2, 0), dtype=np.int64))
        return Graph(edge_index, x=x, y=y, num_nodes=len(nodes))

    # ------------------------------------------------------------------
    # Structure manipulation
    # ------------------------------------------------------------------
    def is_undirected(self) -> bool:
        """True when every directed edge has its reverse present."""
        fwd = set(map(tuple, self.edge_index.T.tolist()))
        return all((dst, src) in fwd for src, dst in fwd)

    def to_undirected(self) -> "Graph":
        """Return a graph with both directions of every edge, deduplicated."""
        both = np.concatenate([self.edge_index, self.edge_index[::-1]], axis=1)
        keys = both[0] * self.num_nodes + both[1]
        _, unique_pos = np.unique(keys, return_index=True)
        both = both[:, np.sort(unique_pos)]
        return Graph(both, x=self.x, y=self.y, num_nodes=self.num_nodes)

    def remove_self_loops(self) -> "Graph":
        """Drop edges with identical endpoints."""
        keep = self.edge_index[0] != self.edge_index[1]
        return Graph(self.edge_index[:, keep], x=self.x, y=self.y,
                     num_nodes=self.num_nodes,
                     edge_weight=self.edge_weight[keep])

    def add_self_loops(self, weight: float = 1.0) -> "Graph":
        """Append a self-loop to every node (the Â = A + I of Eq. 1)."""
        loops = np.arange(self.num_nodes, dtype=np.int64)
        edge_index = np.concatenate(
            [self.edge_index, np.stack([loops, loops])], axis=1)
        edge_weight = np.concatenate(
            [self.edge_weight,
             np.full(self.num_nodes, weight, dtype=self.edge_weight.dtype)])
        return Graph(edge_index, x=self.x, y=self.y,
                     num_nodes=self.num_nodes, edge_weight=edge_weight)

    def subgraph(self, nodes: np.ndarray) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns the subgraph (nodes relabelled ``0..len(nodes)-1`` in the
        given order) and the original node ids, so callers can map back.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        lookup = -np.ones(self.num_nodes, dtype=np.int64)
        lookup[nodes] = np.arange(nodes.shape[0])
        src, dst = self.edge_index
        keep = (lookup[src] >= 0) & (lookup[dst] >= 0)
        sub_edges = np.stack([lookup[src[keep]], lookup[dst[keep]]])
        sub_x = None if self.x is None else self.x[nodes]
        sub_y = None
        if self.y is not None and self.y.ndim >= 1 and self.y.shape[0] == self.num_nodes:
            sub_y = self.y[nodes]
        return (Graph(sub_edges, x=sub_x, y=sub_y, num_nodes=nodes.shape[0],
                      edge_weight=self.edge_weight[keep]), nodes)

    def astype(self, dtype) -> "Graph":
        """Return this graph with float arrays cast to ``dtype``.

        Returns ``self`` when nothing needs casting, so calling it per
        epoch is free after the first conversion.  ``edge_index`` and ``y``
        are structural/label data and keep their dtypes.
        """
        target = np.dtype(dtype)
        needs_x = self.x is not None and self.x.dtype != target
        needs_w = self.edge_weight.dtype != target
        if not needs_x and not needs_w:
            return self
        return Graph(self.edge_index,
                     x=None if self.x is None else self.x.astype(target),
                     y=self.y, num_nodes=self.num_nodes,
                     edge_weight=self.edge_weight.astype(target))

    def copy(self) -> "Graph":
        """Deep copy of arrays."""
        return Graph(self.edge_index.copy(),
                     x=None if self.x is None else self.x.copy(),
                     y=None if self.y is None else np.copy(self.y),
                     num_nodes=self.num_nodes,
                     edge_weight=self.edge_weight.copy())
