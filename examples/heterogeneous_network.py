"""Heterogeneous-graph extension: AdamGNN on a typed-edge network.

The paper's conclusion names heterogeneous networks as future work; this
example runs the :class:`~repro.core.HeteroAdamGNN` extension on a
bibliographic-style graph with two relations over the same papers —
``shares-author`` (dense inside communities) and ``cites`` (sparser,
partly cross-community) — and compares against treating all edges as one
type.

Run with::

    python examples/heterogeneous_network.py
"""

import numpy as np

from repro.core import HeteroAdamGNN
from repro.datasets import load_hetero_dataset
from repro.nn import Linear, Module, cross_entropy
from repro.optim import Adam
from repro.tensor import Tensor, relu
from repro.training import accuracy


class HeteroClassifier(Module):
    """HeteroAdamGNN encoder + linear head."""

    def __init__(self, in_features, num_classes, num_relations, rng):
        super().__init__()
        self.encoder = HeteroAdamGNN(in_features,
                                     num_relations=num_relations,
                                     hidden=32, num_levels=2, rng=rng)
        self.head = Linear(32, num_classes, rng=rng)

    def forward(self, x, edge_index, edge_type):
        out = self.encoder(x, edge_index, edge_type=edge_type)
        return self.head(out.h), out


def train(model, graph, edge_type, masks, labels, epochs=60):
    optimizer = Adam(model.parameters(), lr=0.01, weight_decay=5e-4)
    x = Tensor(graph.x)
    best_val, best_test = 0.0, 0.0
    for _ in range(epochs):
        model.zero_grad()
        logits, _ = model(x, graph.edge_index, edge_type)
        loss = cross_entropy(logits, labels, mask=masks["train"])
        loss.backward()
        optimizer.step()
        val = accuracy(logits.data, labels, masks["val"])
        if val >= best_val:
            best_val = val
            best_test = accuracy(logits.data, labels, masks["test"])
    return best_test


def main() -> None:
    dataset, edge_type = load_hetero_dataset(seed=0)
    graph = dataset.graph
    labels = np.asarray(graph.y)
    masks = dataset.splits.masks(graph.num_nodes)
    relation_counts = np.bincount(edge_type, minlength=2) // 2
    print(f"Typed network: {graph.num_nodes} papers, "
          f"{relation_counts[0]} shares-author edges, "
          f"{relation_counts[1]} cites edges, "
          f"{dataset.num_classes} research areas")

    rng = np.random.default_rng(0)
    typed = HeteroClassifier(graph.num_features, dataset.num_classes, 2,
                             rng)
    typed_acc = train(typed, graph, edge_type, masks, labels)

    # Baseline: collapse the relations into a single type.
    collapsed = HeteroClassifier(graph.num_features, dataset.num_classes,
                                 1, np.random.default_rng(0))
    collapsed_acc = train(collapsed, graph,
                          np.zeros_like(edge_type), masks, labels)

    print(f"\n{'variant':<28}{'test accuracy':>14}")
    print(f"{'typed relations (2)':<28}{typed_acc:>14.4f}")
    print(f"{'relations collapsed (1)':<28}{collapsed_acc:>14.4f}")
    print("\nThe typed fitness scorer can weigh the dense shares-author "
          "relation\ndifferently from citations when forming hyper-nodes — "
          "the extension the\npaper's conclusion proposes.")


if __name__ == "__main__":
    main()
