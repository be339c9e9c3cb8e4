"""Trainer for semi-supervised node classification.

Handles both flat baselines (forward returns logits) and AdamGNN heads
(forward returns ``(logits, AdamGNNOutput)``), adding the paper's auxiliary
losses ``γ·L_KL + δ·L_R`` for the latter (Eq. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..tensor.random import make_rng

from ..core import sampled_reconstruction_loss, self_optimisation_loss
from ..datasets import NodeDataset
from ..graph import CSCGraph, RowPlan, SampledSubgraph, degree_features
from ..nn import Module, cross_entropy
from ..optim import clip_grad_norm
from ..tensor import Tensor, default_dtype, get_default_dtype, no_grad
from .capture import StepCapture, model_rngs, run_step
from .config import TrainConfig
from .loop import EpochLog, adamgnn_loss, train_epochs
from .metrics import accuracy
from .samplers import NeighborSampler, eval_rng, minibatch_rng

#: Sampled evaluation uses exact radius-λ ego-nets (no fanout cap) up to
#: this many graph nodes; beyond it, eval samples at twice the training
#: fanout — still deterministic (fixed eval RNG streams), still O(batch).
SAMPLED_EVAL_EXACT_NODES = 20_000

#: Bytes of validation ego-nets a sampled fit keeps for reuse across
#: epochs.  Batches past the budget are redrawn each epoch from the same
#: streams (so the same subgraphs).  Sized on the 10^6-node run of
#: ``examples/large_graph_training.py`` (98 validation batches of ~5.4 MB,
#: 2-core x86 host): keeping all of them takes 524 MB and lifts peak RSS
#: 2558 → 3120 MB (+22%) to cut eval time ~10%; this budget keeps 47 at
#: +11% (2850 MB).  Capped validation splits fit in it whole.
SAMPLED_EVAL_MEMO_BYTES = 256 << 20


#: One memoised evaluation batch: its subgraph and, for a model that
#: prunes rows, the subgraph's row plan.
EvalBatch = Tuple[SampledSubgraph, Optional[RowPlan]]


def _eval_batch_bytes(entry: EvalBatch) -> int:
    """Bytes an :data:`EvalBatch` holds, counted against the memo budget."""
    sub, plan = entry
    return sub.nbytes + (0 if plan is None else plan.nbytes)


def prepare_node_features(dataset: NodeDataset) -> np.ndarray:
    """Node features, falling back to one-hot degrees when absent.

    The Emails dataset has no attributes; degree one-hots are the standard
    substitute (also used by the paper's GIN baseline protocol).
    """
    graph = dataset.graph
    if graph.x is not None:
        return graph.x
    return degree_features(graph, max_degree=32)


@dataclass
class NodeTrainResult(EpochLog):
    """Outcome of one node-classification run."""

    test_accuracy: float
    val_accuracy: float
    #: optimizer steps per epoch (1 for full-batch, the minibatch count
    #: for sampled training)
    steps_per_epoch: int = 1


class NodeClassificationTrainer:
    """Full-batch node-classification training loop."""

    def __init__(self, config: Optional[TrainConfig] = None):
        self.config = config if config is not None else TrainConfig()
        #: training-step tape registry (None = capture disabled)
        self._capture: Optional[StepCapture] = \
            StepCapture() if self.config.capture else None
        #: neighbour sampler of the last sampled fit (counters)
        self._sampler: Optional[NeighborSampler] = None

    def cache_stats(self, model: Optional[Module] = None,
                    ) -> Dict[str, dict]:
        """Hit/miss counters of every cache the hot path touches."""
        stats: Dict[str, dict] = {}
        structure_cache = getattr(getattr(model, "encoder", None),
                                  "structure_cache", None)
        if structure_cache is not None:
            stats["structure_cache"] = structure_cache.stats()
        if self._capture is not None:
            stats["training_tape"] = self._capture.stats()
        if self._sampler is not None:
            stats["sampler"] = self._sampler.stats()
        return stats

    @staticmethod
    def _forward(model: Module, *args, **kwargs):
        """The model's forward as ``(logits, AdamGNNOutput or None)``."""
        out = model(*args, **kwargs)
        if isinstance(out, tuple):
            return out          # (logits, AdamGNNOutput)
        return out, None

    def _forward_sampled(self, model: Module, features: np.ndarray,
                         sub: SampledSubgraph, **rows):
        """The model's forward on ``sub``.

        A model that can prune rows (one with a ``row_plan``) gets the
        whole cast feature matrix, ``input_nodes=sub.nodes`` and
        ``indptr=sub.indptr`` plus ``rows`` (``num_outputs=`` or
        ``plan=``, see :meth:`GNNEncoder.forward`): it gathers the rows
        its plan reads inside its forward.  The others get the
        subgraph's rows and compute every row.
        """
        dtype = self.config.dtype
        weight = np.ones(sub.num_edges, dtype=np.dtype(dtype))
        if hasattr(model, "row_plan"):
            return self._forward(model, Tensor(features, dtype=dtype),
                                 sub.edge_index, weight,
                                 input_nodes=sub.nodes, indptr=sub.indptr,
                                 **rows)
        return self._forward(model, Tensor(features[sub.nodes], dtype=dtype),
                             sub.edge_index, weight)

    def fit(self, model: Module, dataset: NodeDataset) -> NodeTrainResult:
        if self.config.sampled:
            return self._fit_sampled(model, dataset)
        return self._fit_full_batch(model, dataset)

    def _fit_full_batch(self, model: Module,
                        dataset: NodeDataset) -> NodeTrainResult:
        cfg = self.config
        # Inputs move to the compute precision once, up front: the graph
        # cast covers edge weights, the Tensor dtype covers the (possibly
        # synthesised) feature matrix.
        graph = dataset.graph.astype(cfg.dtype)
        x = Tensor(prepare_node_features(dataset), dtype=cfg.dtype)
        labels = np.asarray(graph.y, dtype=np.int64)
        masks = dataset.splits.masks(graph.num_nodes)
        rng = make_rng(cfg.seed + 101)
        rngs = [rng] + model_rngs(model)

        def forward_loss() -> Tensor:
            logits, extra = self._forward(model, x, graph.edge_index,
                                          graph.edge_weight)
            return adamgnn_loss(
                cross_entropy(logits, labels, mask=masks["train"]), extra,
                cfg, self_optimisation_loss,
                lambda h: sampled_reconstruction_loss(
                    h, graph.edge_index, graph.num_nodes, rng))

        def steps(epoch: int) -> Iterator[Tensor]:
            model.zero_grad()
            # Every epoch revisits the identical (graph, dtype) capture
            # key, so after the mark + capture epochs each one replays.
            yield run_step(self._capture, (graph,), cfg.dtype, rngs,
                           forward_loss)

        def logits() -> np.ndarray:
            return self._forward(model, x, graph.edge_index,
                                 graph.edge_weight)[0].data

        log = train_epochs(
            model, cfg, steps,
            lambda: accuracy(logits(), labels, masks["val"]),
            clip_grad_norm)
        with default_dtype(cfg.dtype), no_grad():
            final = logits()
        return NodeTrainResult(
            test_accuracy=accuracy(final, labels, masks["test"]),
            val_accuracy=accuracy(final, labels, masks["val"]),
            **vars(log))

    # ------------------------------------------------------------------
    # Sampled minibatch path (DESIGN.md "Sampled minibatch training")
    # ------------------------------------------------------------------
    @staticmethod
    def _row_plan(model: Module, sub: SampledSubgraph,
                  edge_weight: np.ndarray) -> Optional[RowPlan]:
        """The seed rows' plan when ``model`` can prune rows, else None.

        Flat GCN/SAGE/GAT stacks plan, reading the subgraph's CSR
        (``sub.indptr``) so nothing is sorted; GIN (BatchNorm over every
        row) and AdamGNN (Eq. 5-6 terms over every row) return or have no
        plan.  Evaluation memoises this plan with its subgraph; training
        steps instead pass ``num_outputs`` and let the model plan inside
        its forward, so the build is timed with it.
        """
        planner = getattr(model, "row_plan", None)
        if planner is None:
            return None
        return planner(sub.edge_index, edge_weight, sub.num_nodes,
                       sub.num_seeds, sub.indptr)

    def _sampled_step(self, model: Module, sampler: NeighborSampler,
                      csc: CSCGraph, seeds: np.ndarray,
                      features: np.ndarray, labels: np.ndarray,
                      rng_b: np.random.Generator) -> Tensor:
        """One sampled minibatch step: extract, forward, loss, backward.

        All randomness — ego-net draws and the reconstruction loss's
        negative sampling — comes from ``rng_b``, the batch's keyed
        stream, so the step is a pure function of (weights, seed, epoch,
        batch index).  No tape capture: every batch is a fresh structure,
        so a capture key would never recur.
        """
        sub = sampler.sample(csc, seeds, rng_b)
        model.zero_grad()
        logits, extra = self._forward_sampled(model, features, sub,
                                              num_outputs=sub.num_seeds)
        # Every subgraph row, or with a plan the seed rows only.
        rows = logits.shape[0]
        loss = adamgnn_loss(
            cross_entropy(logits, labels[sub.nodes[:rows]],
                          mask=sub.seed_mask()[:rows]),
            extra, self.config, self_optimisation_loss,
            lambda h: sampled_reconstruction_loss(
                h, sub.edge_index, sub.num_nodes, rng_b))
        loss.backward()
        return loss

    def _evaluate_sampled(self, model: Module, csc: CSCGraph,
                          features: np.ndarray, labels: np.ndarray,
                          idx: np.ndarray,
                          memo: Optional[Dict[int, EvalBatch]] = None,
                          ) -> float:
        """Deterministic minibatched accuracy over ``idx``.

        Exact ego-nets below :data:`SAMPLED_EVAL_EXACT_NODES` graph
        nodes; above, neighbourhoods are sampled at twice the training
        fanout from fixed eval RNG streams, so every epoch's validation
        scores the same subgraphs and early stopping stays meaningful.
        Those subgraphs, and their row plans, depend only on ``(seed,
        batch)`` and ``idx``, so a caller scoring the same ``idx``
        repeatedly passes ``memo`` (batch index → subgraph and plan) and
        each batch, up to :data:`SAMPLED_EVAL_MEMO_BYTES` of both, is
        drawn and planned only once.
        """
        cfg = self.config
        if csc.num_nodes <= SAMPLED_EVAL_EXACT_NODES or cfg.fanout is None:
            fanout = None
        else:
            fanout = 2 * cfg.fanout
        idx = np.asarray(idx, dtype=np.int64)
        memo_bytes = 0 if memo is None else sum(
            _eval_batch_bytes(entry) for entry in memo.values())
        weight_dtype = np.dtype(cfg.dtype)
        correct = 0
        for b, start in enumerate(range(0, idx.size, cfg.node_batch_size)):
            entry = None if memo is None else memo.get(b)
            if entry is None:
                sub = csc.ego_net(idx[start:start + cfg.node_batch_size],
                                  radius=cfg.num_hops, fanout=fanout,
                                  rng=eval_rng(cfg.seed, b))
                entry = (sub, self._row_plan(
                    model, sub, np.ones(sub.num_edges, dtype=weight_dtype)))
                size = _eval_batch_bytes(entry)
                if (memo is not None and
                        memo_bytes + size <= SAMPLED_EVAL_MEMO_BYTES):
                    memo[b] = entry
                    memo_bytes += size
            sub, plan = entry
            logits, _ = self._forward_sampled(model, features, sub,
                                              plan=plan)
            pred = logits.data[:sub.num_seeds].argmax(axis=1)
            correct += int((pred == labels[sub.nodes[:sub.num_seeds]]).sum())
        return correct / max(idx.size, 1)

    def _fit_sampled(self, model: Module,
                     dataset: NodeDataset) -> NodeTrainResult:
        """Minibatch training over sampled ego-nets (O(batch) per step)."""
        cfg = self.config
        graph = dataset.graph
        # The fit reads the graph through its CSC structure, its labels and
        # the feature rows each batch gathers; only the features are cast
        # to the compute dtype, once, so rows are not cast per batch.
        features = prepare_node_features(dataset).astype(cfg.dtype,
                                                         copy=False)
        labels = np.asarray(graph.y, dtype=np.int64)
        csc = CSCGraph.from_graph(graph)
        sampler = NeighborSampler(cfg.fanout, cfg.num_hops)
        self._sampler = sampler
        train_idx = np.asarray(dataset.splits.train, dtype=np.int64)
        val_idx = np.asarray(dataset.splits.val, dtype=np.int64)
        test_idx = np.asarray(dataset.splits.test, dtype=np.int64)
        # Validation scores the same subgraphs every epoch: draw them once.
        val_nets: Dict[int, EvalBatch] = {}
        size = cfg.node_batch_size
        steps_per_epoch = max(1, -(-train_idx.size // size))
        if cfg.max_steps_per_epoch is not None:
            steps_per_epoch = min(steps_per_epoch, cfg.max_steps_per_epoch)

        def steps(epoch: int) -> Iterator[Tensor]:
            perm = minibatch_rng(cfg.seed, epoch).permutation(train_idx)
            for b in range(steps_per_epoch):
                seeds = perm[b * size:(b + 1) * size]
                if seeds.size == 0:
                    return
                yield self._sampled_step(
                    model, sampler, csc, seeds, features, labels,
                    minibatch_rng(cfg.seed, epoch, b))

        def score(idx: np.ndarray, memo=None) -> float:
            return self._evaluate_sampled(model, csc, features, labels, idx,
                                          memo)

        log = train_epochs(model, cfg, steps, lambda: score(val_idx, val_nets),
                           clip_grad_norm)
        with default_dtype(cfg.dtype), no_grad():
            test_acc = score(test_idx)
            val_acc = score(val_idx, val_nets)
        return NodeTrainResult(test_accuracy=test_acc, val_accuracy=val_acc,
                               steps_per_epoch=steps_per_epoch, **vars(log))


def evaluate_node_model(model: Module, dataset: NodeDataset,
                        split: str = "test") -> Dict[str, float]:
    """Accuracy of a trained model on one split (no gradient work)."""
    graph = dataset.graph
    # Evaluate at the model's own precision (set by whichever trainer
    # produced it) so the forward pass stays dtype-stable.
    params = model.parameters()
    dtype = params[0].data.dtype if params else get_default_dtype()
    x = Tensor(prepare_node_features(dataset), dtype=dtype)
    masks = dataset.splits.masks(graph.num_nodes)
    model.eval()
    with default_dtype(dtype), no_grad():
        out = model(x, graph.edge_index, graph.edge_weight)
    logits = out[0] if isinstance(out, tuple) else out
    return {"accuracy": accuracy(logits.data, np.asarray(graph.y),
                                 masks[split])}
