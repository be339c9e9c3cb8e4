"""Training on graphs too large for a full-batch epoch.

Scenario: a hierarchical SBM graph at a size you choose — up to a million
nodes — generated by the streaming block-pair sampler (peak memory
proportional to the edge list, never O(n²)), then trained with sampled
radius-λ ego-net minibatches over a CSC adjacency structure.  Each
optimiser step touches only ``node_batch_size`` seed nodes plus their
sampled receptive field, so epoch cost scales with the minibatch count
rather than the node count.  Neighbours are drawn uniformly at a fixed
fanout per node and hop (the GraphSAGE scheme).

Run with::

    python examples/large_graph_training.py --nodes 10000 --epochs 3

Seeded runs are bitwise-reproducible: every minibatch draws from an RNG
stream keyed by (seed, epoch, batch), never from shared mutable state.
"""

import argparse
import time

import numpy as np

from repro.datasets import NodeDataset, split_nodes
from repro.datasets.sbm import generate_sbm_graph, scaled_sbm_config
from repro.training import TrainConfig
from repro.training.experiment import make_node_classifier
from repro.training.node_trainer import (NodeClassificationTrainer,
                                         prepare_node_features)


def build_dataset(num_nodes: int, seed: int) -> NodeDataset:
    cfg = scaled_sbm_config(num_nodes)
    start = time.perf_counter()
    graph = generate_sbm_graph(cfg, seed=seed)
    seconds = time.perf_counter() - start
    print(f"Generated {graph.num_nodes:,} nodes / {graph.num_edges:,} "
          f"directed edges in {seconds:.2f} s "
          f"(streaming={'yes' if num_nodes > 20_000 else 'auto/dense'})")
    splits = split_nodes(graph.num_nodes, np.random.default_rng(seed + 1))
    return NodeDataset(name=f"sbm-{num_nodes}", graph=graph,
                       num_classes=cfg.num_classes, splits=splits)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=100_000,
                        help="graph size to generate (default 100k)")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--batch-size", type=int, default=1024,
                        help="seed nodes per minibatch")
    parser.add_argument("--fanout", type=int, default=10,
                        help="neighbours sampled per node per hop")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="cap optimiser steps per epoch (full "
                             "permutation when omitted)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dataset = build_dataset(args.nodes, args.seed)
    features = prepare_node_features(dataset)
    model = make_node_classifier("gcn", features.shape[1],
                                 dataset.num_classes, seed=args.seed)
    config = TrainConfig(sampled=True, epochs=args.epochs,
                         patience=args.epochs, seed=args.seed,
                         node_batch_size=args.batch_size,
                         fanout=args.fanout, num_hops=2,
                         max_steps_per_epoch=args.max_steps,
                         verbose=True)

    trainer = NodeClassificationTrainer(config)
    start = time.perf_counter()
    result = trainer.fit(model, dataset)
    seconds = time.perf_counter() - start

    steps = result.epochs_run * result.steps_per_epoch
    print(f"\n{result.epochs_run} epochs x {result.steps_per_epoch} steps "
          f"in {seconds:.2f} s ({seconds / max(1, steps):.3f} s/step)")
    print(f"Test accuracy: {result.test_accuracy:.4f} "
          f"(val {result.val_accuracy:.4f})")
    sampler_stats = trainer.cache_stats(model)["sampler"]
    print("Sampler: "
          f"{sampler_stats.get('batches')} batches, "
          f"{sampler_stats.get('nodes_sampled'):,} nodes / "
          f"{sampler_stats.get('edges_sampled'):,} edges sampled, "
          f"mean batch {sampler_stats.get('mean_batch_nodes', 0.0):.0f} "
          f"nodes")


if __name__ == "__main__":
    main()
