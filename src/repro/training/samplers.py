"""Pluggable neighbour-sampling policies for minibatch node training.

A policy owns *which* neighbours a minibatch pulls in; the CSC structure
(:class:`~repro.graph.CSCGraph`) owns *how* they are extracted.  Two
policies ship:

* :class:`UniformNeighborSampler` — the classical GraphSAGE baseline:
  fixed fanout, uniform without replacement per node and hop;
* :class:`AdaptiveNeighborSampler` — a GRAPES-inspired adaptive policy
  ("GRAPES: Learning to Sample Graphs for Scalable GNNs", PAPERS.md).
  GRAPES trains a GFlowNet to concentrate the sampling budget on the
  neighbours that matter for the task loss; here the learned network is
  replaced by a per-node utility score updated online from the training
  signal itself — the gradient magnitude the loss sends back into each
  sampled node's input features.  Nodes whose features keep receiving
  large gradients are informative for the seeds that sampled them and get
  drawn with higher probability next time; the exponential moving average
  keeps the policy stable and the uniform prior keeps it exploring.

RNG-stream keying (the PR-8 sharding discipline): policies never own
randomness.  The trainer derives one generator per (seed, epoch, batch)
via :func:`minibatch_rng` and passes it in, so a sample depends only on
its coordinates — never on execution order, worker packing, or how many
batches ran before it — and seeded replay is bitwise.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graph import CSCGraph, SampledSubgraph
from ..tensor.precision import ACCUM_DTYPE

__all__ = ["AdaptiveNeighborSampler", "NeighborSampler",
           "UniformNeighborSampler", "make_sampler", "minibatch_rng"]

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
    """Base policy: fixed-fanout radius-λ ego-net sampling + counters.

    Subclasses override :meth:`weights` (per-node scores the CSC sampler
    draws proportionally to) and :meth:`update` (the post-step learning
    signal hook).  The counters — batches, nodes/edges sampled (totals and
    last batch), and a sampled in-degree histogram — surface through
    ``NodeClassificationTrainer.cache_stats(model)`` after a sampled fit.
    """

    name = "base"
    #: True when :meth:`update` consumes input-feature gradients — the
    #: trainer then marks the minibatch feature tensor ``requires_grad``
    #: so backward extends into it (a cost uniform sampling skips).
    needs_input_grad = False

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

    # -- policy surface -------------------------------------------------
    def weights(self, csc: CSCGraph) -> Optional[np.ndarray]:
        """Per-node sampling scores, or ``None`` for uniform."""
        return None

    def update(self, subgraph: SampledSubgraph,
               node_signal: Optional[np.ndarray]) -> None:
        """Consume the training signal for one step (no-op by default)."""

    # -- sampling + accounting ------------------------------------------
    def sample(self, csc: CSCGraph, seeds: np.ndarray,
               rng: np.random.Generator) -> SampledSubgraph:
        sub = csc.ego_net(seeds, radius=self.num_hops, fanout=self.fanout,
                          rng=rng, weights=self.weights(csc))
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
            "policy": self.name,
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


class UniformNeighborSampler(NeighborSampler):
    """Uniform fixed-fanout sampling (the GraphSAGE baseline)."""

    name = "uniform"


class AdaptiveNeighborSampler(NeighborSampler):
    """GRAPES-style adaptive sampling from an online utility score.

    Maintains one positive score per node, initialised uniform.  After
    each step the trainer hands back the L2 norm of the loss gradient on
    every sampled node's input-feature row; scores move toward the batch-
    normalised gradient mass by an exponential moving average.  Neighbour
    draws are proportional to score, so the sampling budget concentrates
    where the task loss says the information is — the adaptive half of
    GRAPES with the GFlowNet replaced by this bandit-style estimate.

    ``floor`` lower-bounds every weight at ``floor ×`` the uniform weight,
    keeping the policy strictly exploratory (no node's probability ever
    reaches zero), and updates are pure functions of (subgraph, signal),
    so seeded runs replay bitwise.
    """

    name = "adaptive"
    needs_input_grad = True

    def __init__(self, fanout: Optional[int], num_hops: int,
                 num_nodes: int, ema: float = 0.2, floor: float = 0.25):
        super().__init__(fanout, num_hops)
        if not 0.0 < ema <= 1.0:
            raise ValueError(f"ema must be in (0, 1], got {ema}")
        if not 0.0 < floor <= 1.0:
            raise ValueError(f"floor must be in (0, 1], got {floor}")
        self.ema = float(ema)
        self.floor = float(floor)
        self.scores = np.ones(num_nodes, dtype=ACCUM_DTYPE)
        self.updates = 0

    def weights(self, csc: CSCGraph) -> np.ndarray:
        return np.maximum(self.scores, self.floor)

    def update(self, subgraph: SampledSubgraph,
               node_signal: Optional[np.ndarray]) -> None:
        if node_signal is None:
            return
        signal = np.asarray(node_signal, dtype=ACCUM_DTYPE)
        if signal.shape[0] != subgraph.num_nodes:
            raise ValueError("node_signal must have one entry per "
                             "subgraph node")
        mean = signal.mean()
        if not np.isfinite(mean) or mean <= 0:
            return
        target = signal / mean  # batch-relative utility, mean 1
        idx = subgraph.nodes
        self.scores[idx] += self.ema * (target - self.scores[idx])
        self.updates += 1

    def stats(self) -> Dict:
        out = super().stats()
        out["updates"] = self.updates
        out["score_mean"] = float(self.scores.mean())
        out["score_max"] = float(self.scores.max())
        return out


def make_sampler(name: str, fanout: Optional[int], num_hops: int,
                 num_nodes: int) -> NeighborSampler:
    """Construct the named sampling policy (``uniform`` | ``adaptive``)."""
    key = name.lower()
    if key == "uniform":
        return UniformNeighborSampler(fanout, num_hops)
    if key == "adaptive":
        return AdaptiveNeighborSampler(fanout, num_hops, num_nodes)
    raise ValueError(f"unknown sampler policy {name!r}; "
                     "choose 'uniform' or 'adaptive'")
