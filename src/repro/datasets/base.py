"""Dataset containers and split protocols.

The paper's evaluation protocol (Section 4.1):

* node-wise tasks — 80% labelled nodes / existing links for training, 10%
  for validation, 10% for testing; link prediction adds an equal number of
  sampled non-edges to each split;
* graph classification — 80/10/10 random split over graphs.

Those protocols are implemented here, parameterised by an explicit RNG so
that the "average of 10 runs with random seeds" setup reproduces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import Graph


@dataclass
class NodeTaskSplits:
    """Index arrays for the node-classification protocol."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def masks(self, num_nodes: int) -> Dict[str, np.ndarray]:
        """Boolean masks keyed by split name."""
        out = {}
        for name, idx in (("train", self.train), ("val", self.val),
                          ("test", self.test)):
            mask = np.zeros(num_nodes, dtype=bool)
            mask[idx] = True
            out[name] = mask
        return out


@dataclass
class LinkTaskSplits:
    """Edge splits for link prediction.

    ``train_graph`` is the observed graph: the original graph minus the
    held-out validation and test edges (message passing must not see them).
    Each ``*_edges``/``*_negatives`` pair holds ``(2, m)`` node-pair arrays;
    positives are true edges, negatives are sampled non-edges of equal count.
    """

    train_graph: Graph
    train_edges: np.ndarray
    train_negatives: np.ndarray
    val_edges: np.ndarray
    val_negatives: np.ndarray
    test_edges: np.ndarray
    test_negatives: np.ndarray


@dataclass
class NodeDataset:
    """A single attributed graph plus task metadata."""

    name: str
    graph: Graph
    num_classes: int
    splits: NodeTaskSplits

    @property
    def has_features(self) -> bool:
        return self.graph.x is not None


@dataclass
class GraphDataset:
    """A collection of labelled graphs for graph classification.

    Graph labels are gathered into ``label_array`` once at construction
    (``None`` when any graph is unlabelled), so per-batch label lookups
    are fancy-index slices instead of Python loops over graphs.  Graphs
    and their labels are treated as immutable after construction — the
    same contract the identity-keyed structure cache relies on.
    """

    name: str
    graphs: List[Graph]
    num_classes: int
    num_features: int
    train_index: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    val_index: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    test_index: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    label_array: Optional[np.ndarray] = field(default=None, init=False,
                                              repr=False, compare=False)

    def __post_init__(self) -> None:
        if all(g.y is not None for g in self.graphs):
            self.label_array = np.asarray(
                [int(np.atleast_1d(g.y)[0]) for g in self.graphs],
                dtype=np.int64)

    def __len__(self) -> int:
        return len(self.graphs)

    def subset(self, index: np.ndarray) -> List[Graph]:
        return [self.graphs[i] for i in np.asarray(index, dtype=np.int64)]

    def labels(self, index: Optional[np.ndarray] = None) -> np.ndarray:
        if self.label_array is None:
            graphs = self.graphs if index is None else self.subset(index)
            return np.asarray([int(np.atleast_1d(g.y)[0]) for g in graphs])
        if index is None:
            return self.label_array
        return self.label_array[np.asarray(index, dtype=np.int64)]


def split_nodes(num_nodes: int, rng: np.random.Generator,
                fractions: Tuple[float, float, float] = (0.8, 0.1, 0.1),
                ) -> NodeTaskSplits:
    """Random 80/10/10 node split (the You et al. 2019 protocol)."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    perm = rng.permutation(num_nodes)
    n_train = int(round(fractions[0] * num_nodes))
    n_val = int(round(fractions[1] * num_nodes))
    return NodeTaskSplits(train=np.sort(perm[:n_train]),
                          val=np.sort(perm[n_train:n_train + n_val]),
                          test=np.sort(perm[n_train + n_val:]))


def split_graphs(num_graphs: int, rng: np.random.Generator,
                 fractions: Tuple[float, float, float] = (0.8, 0.1, 0.1),
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random 80/10/10 graph split used for Table 1."""
    perm = rng.permutation(num_graphs)
    n_train = int(round(fractions[0] * num_graphs))
    n_val = int(round(fractions[1] * num_graphs))
    return (np.sort(perm[:n_train]),
            np.sort(perm[n_train:n_train + n_val]),
            np.sort(perm[n_train + n_val:]))


def _undirected_edge_list(graph: Graph) -> np.ndarray:
    """Each undirected edge once, as ``(2, m)`` with ``src < dst``."""
    src, dst = graph.edge_index
    keep = src < dst
    return np.stack([src[keep], dst[keep]])


def sample_negative_edges(graph: Graph, count: int,
                          rng: np.random.Generator,
                          forbidden: Optional[set] = None) -> np.ndarray:
    """Sample ``count`` distinct non-edges (u < v) uniformly.

    ``forbidden`` lets callers exclude negatives already assigned to another
    split, keeping train/val/test negatives disjoint.
    """
    existing = set()
    src, dst = graph.edge_index
    for u, v in zip(src.tolist(), dst.tolist()):
        existing.add((min(u, v), max(u, v)))
    if forbidden:
        existing |= forbidden
    n = graph.num_nodes
    max_pairs = n * (n - 1) // 2
    if count > max_pairs - len(existing):
        raise ValueError("not enough non-edges to sample from")
    out: List[Tuple[int, int]] = []
    seen = set()
    while len(out) < count:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair in existing or pair in seen:
            continue
        seen.add(pair)
        out.append(pair)
    return np.asarray(out, dtype=np.int64).T


def split_links(graph: Graph, rng: np.random.Generator,
                fractions: Tuple[float, float, float] = (0.8, 0.1, 0.1),
                ) -> LinkTaskSplits:
    """Hold out 10% + 10% of undirected edges, sample matching negatives.

    The training graph keeps the remaining 80% of edges (both directions)
    so that the encoder never observes a held-out pair.
    """
    edges = _undirected_edge_list(graph)
    m = edges.shape[1]
    perm = rng.permutation(m)
    n_train = int(round(fractions[0] * m))
    n_val = int(round(fractions[1] * m))
    train_e = edges[:, perm[:n_train]]
    val_e = edges[:, perm[n_train:n_train + n_val]]
    test_e = edges[:, perm[n_train + n_val:]]

    both = np.concatenate([train_e, train_e[::-1]], axis=1)
    train_graph = Graph(both, x=graph.x, y=graph.y, num_nodes=graph.num_nodes)

    forbidden: set = set()
    negatives = []
    for positive in (train_e, val_e, test_e):
        neg = sample_negative_edges(graph, positive.shape[1], rng,
                                    forbidden=forbidden)
        forbidden |= set(map(tuple, neg.T.tolist()))
        negatives.append(neg)

    return LinkTaskSplits(train_graph=train_graph,
                          train_edges=train_e, train_negatives=negatives[0],
                          val_edges=val_e, val_negatives=negatives[1],
                          test_edges=test_e, test_negatives=negatives[2])
