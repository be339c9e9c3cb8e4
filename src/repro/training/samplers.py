"""Uniform fixed-fanout neighbour sampling for minibatch node training.

:class:`NeighborSampler` decides *how many* neighbours a minibatch pulls
in (fanout per node and hop, GraphSAGE-style, uniform without
replacement); the CSC structure (:class:`~repro.graph.CSCGraph`) owns
*how* they are extracted.  It is the one sampling policy: a GRAPES-style
adaptive policy (PAPERS.md) was measured against it at fanouts 3, 5 and
10 and did not win at any of them (DESIGN.md, "Ablation ledger").

RNG-stream keying (the sharding discipline): the sampler never owns
randomness.  The trainer derives one generator per (seed, epoch, batch)
via :func:`minibatch_rng` and passes it in, so a sample depends only on
its coordinates — never on execution order, worker packing, or how many
batches ran before it — and seeded replay is bitwise.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graph import CSCGraph, SampledSubgraph

__all__ = ["NeighborSampler", "minibatch_rng"]

#: Stream tag for the sampled trainer's node-permutation / ego-net draws.
#: Distinct from the sharding tags (5711/307/9181) and the plain trainers'
#: ``seed + {101, 307}`` streams, so no draw can collide across paths.
MINIBATCH_STREAM = 7717

#: Stream tag for deterministic sampled evaluation.
EVAL_STREAM = 7723

#: Fan-out histogram resolution: sampled in-degrees are clipped here.
_HIST_BINS = 65


def minibatch_rng(seed: int, epoch: int,
                  batch: Optional[int] = None) -> np.random.Generator:
    """Keyed RNG stream for one epoch's permutation or one batch's draws."""
    if batch is None:
        return np.random.default_rng((seed, MINIBATCH_STREAM, epoch))
    return np.random.default_rng((seed, MINIBATCH_STREAM, epoch, batch))


def eval_rng(seed: int, batch: int) -> np.random.Generator:
    """Keyed RNG stream for deterministic sampled evaluation batches."""
    return np.random.default_rng((seed, EVAL_STREAM, batch))


class NeighborSampler:
    """Fixed-fanout radius-λ ego-net sampling + counters.

    The counters — batches, nodes/edges sampled (totals and last batch),
    and a sampled in-degree histogram — surface through
    ``NodeClassificationTrainer.cache_stats(model)`` after a sampled fit.
    """

    def __init__(self, fanout: Optional[int], num_hops: int):
        if num_hops < 1:
            raise ValueError(f"num_hops must be >= 1, got {num_hops}")
        if fanout is not None and fanout < 1:
            raise ValueError(f"fanout must be >= 1 or None, got {fanout}")
        self.fanout = fanout
        self.num_hops = num_hops
        self.batches = 0
        self.nodes_sampled = 0
        self.edges_sampled = 0
        self.last_nodes = 0
        self.last_edges = 0
        self.fanout_hist = np.zeros(_HIST_BINS, dtype=np.int64)

    def sample(self, csc: CSCGraph, seeds: np.ndarray,
               rng: np.random.Generator) -> SampledSubgraph:
        """Draw the minibatch ego-net around ``seeds`` and count it."""
        sub = csc.ego_net(seeds, radius=self.num_hops, fanout=self.fanout,
                          rng=rng)
        self.batches += 1
        self.last_nodes = sub.num_nodes
        self.last_edges = sub.num_edges
        self.nodes_sampled += sub.num_nodes
        self.edges_sampled += sub.num_edges
        if sub.num_edges:
            indeg = np.bincount(sub.edge_index[1],
                                minlength=sub.num_nodes)
            self.fanout_hist += np.bincount(
                np.minimum(indeg, _HIST_BINS - 1), minlength=_HIST_BINS)
        return sub

    def stats(self) -> Dict:
        """Counter snapshot for ``trainer.cache_stats(model)``."""
        hist = self.fanout_hist
        populated = int(np.flatnonzero(hist)[-1]) + 1 if hist.any() else 0
        return {
            "fanout": self.fanout,
            "num_hops": self.num_hops,
            "batches": self.batches,
            "nodes_sampled": self.nodes_sampled,
            "edges_sampled": self.edges_sampled,
            "last_batch_nodes": self.last_nodes,
            "last_batch_edges": self.last_edges,
            "mean_batch_nodes": (self.nodes_sampled / self.batches
                                 if self.batches else 0.0),
            "fanout_hist": hist[:populated].tolist(),
        }

