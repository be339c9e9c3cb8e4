"""Trainer for graph classification.

Minibatched over block-diagonal :class:`~repro.graph.GraphBatch` objects.
Models return ``(logits, aux)`` where ``aux`` is either a scalar auxiliary
loss tensor (DiffPool's link/entropy terms, zero for most baselines) or an
:class:`~repro.core.AdamGNNOutput`, in which case the paper's
``γ·L_KL + δ·L_R`` terms are added (Eq. 7).

Minibatch collation goes through :class:`~repro.core.DatasetStructures`
(unless ``TrainConfig.batch_cache`` is off): each member graph's level-0
structure — λ-hop ego-networks and GCN normalisation — is precomputed once
per dataset and *composed* into batch-level structure by node-id offsetting
instead of being recomputed on the collated arrays, and the collated
batches themselves are cached by index chunk so the fixed val/test chunks
(and any recurring train chunk) are reused across epochs.  See
``repro/core/structure.py`` for the exactness argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor.random import make_rng

from ..core import (AdamGNNGraphClassifier, BatchStructure,
                    DatasetStructures, sampled_reconstruction_loss,
                    self_optimisation_loss)
from ..datasets import GraphDataset
from ..graph import GraphBatch
from ..nn import Module, cross_entropy
from ..optim import clip_grad_norm
from ..tensor import Tensor, default_dtype, no_grad, segment_plan_stats
from .capture import StepCapture, model_rngs, run_step
from .config import TrainConfig
from .loop import EpochLog, adamgnn_loss, train_epochs


@dataclass
class GraphTrainResult(EpochLog):
    """Outcome of one graph-classification run."""

    test_accuracy: float
    val_accuracy: float
    #: data-parallel run record: mode, effective process count, fallback
    #: reason, comm segment bytes and the serialized shard assignment
    #: (``None`` for plain non-sharded training).  See
    #: ``training/dataparallel.py``.
    sharding: Optional[Dict] = None

    @property
    def seconds_per_epoch(self) -> float:
        return self.seconds / max(self.epochs_run, 1)


#: Stat counters that describe a per-process constant rather than an
#: accumulating event count — merged across worker processes by ``max``
#: instead of ``+`` (summing three copies of a cache's capacity, or of
#: ``graphs_total``, would be nonsense).
_NON_ADDITIVE_STATS = frozenset({"capacity", "graphs_total"})


def _merge_stat_sections(base: Dict[str, dict],
                         extra: Dict[str, dict]) -> Dict[str, dict]:
    """Fold one cache-stats report into another, counter-wise.

    Sections (``batch_cache``, ``training_tape``, ...) are matched by
    name; numeric counters add, except the :data:`_NON_ADDITIVE_STATS`
    per-process constants which take the max.  Used to combine the
    coordinator's view with data-parallel workers' private caches.
    """
    out = {name: dict(counters) for name, counters in base.items()}
    for name, counters in extra.items():
        dst = out.setdefault(name, {})
        for key, value in counters.items():
            if not isinstance(value, (int, float, np.integer, np.floating)):
                dst.setdefault(key, value)
            elif key in _NON_ADDITIVE_STATS:
                dst[key] = max(dst.get(key, value), value)
            else:
                dst[key] = dst.get(key, 0) + value
    return out


def _index_chunks(index: np.ndarray, batch_size: int,
                  rng: Optional[np.random.Generator] = None,
                  ) -> Iterator[np.ndarray]:
    """Consecutive ``batch_size`` chunks of ``index`` (shuffled first when
    ``rng`` is given)."""
    index = np.asarray(index, dtype=np.int64)
    order = rng.permutation(index) if rng is not None else index
    for lo in range(0, order.shape[0], batch_size):
        yield order[lo:lo + batch_size]


def iterate_batches(dataset: GraphDataset, index: np.ndarray,
                    batch_size: int, rng: Optional[np.random.Generator] = None
                    ) -> Iterator[GraphBatch]:
    """Yield shuffled (when ``rng`` given) minibatches as GraphBatch."""
    for chunk in _index_chunks(index, batch_size, rng):
        y = (dataset.labels(chunk)
             if dataset.label_array is not None else None)
        yield GraphBatch.from_graphs(dataset.subset(chunk), y=y)


def _model_forward(model: Module, batch: GraphBatch,
                   structure: Optional[BatchStructure] = None):
    """Uniform forward: AdamGNN heads take unpacked arrays."""
    if isinstance(model, AdamGNNGraphClassifier):
        return model(Tensor(batch.x), batch.edge_index, batch.edge_weight,
                     batch.batch, batch.num_graphs, structure=structure)
    return model(batch)


class GraphClassificationTrainer:
    """Minibatch graph-classification training loop."""

    def __init__(self, config: Optional[TrainConfig] = None):
        self.config = config if config is not None else TrainConfig()
        #: (dataset, (radius, dtype), DatasetStructures) of the last
        #: dataset seen.  Holding the dataset object keeps its id stable
        #: for the check.
        self._structures: Optional[Tuple[GraphDataset, Tuple,
                                         DatasetStructures]] = None
        #: training-step tape/arena registry (None = capture disabled)
        self._capture: Optional[StepCapture] = \
            StepCapture() if self.config.capture else None
        #: merged per-worker cache counters of the last data-parallel
        #: ``fit`` (worker processes own private caches; their final
        #: counters are shipped back at shutdown and folded into
        #: :meth:`cache_stats`).  ``None`` outside multi-process runs.
        self._dp_worker_stats: Optional[Dict[str, dict]] = None

    # ------------------------------------------------------------------
    # Minibatch pipeline
    # ------------------------------------------------------------------
    def _structures_for(self, model: Module, dataset: GraphDataset,
                        ) -> Optional[DatasetStructures]:
        """The dataset's structure pipeline (``None`` when disabled)."""
        if not self.config.batch_cache:
            return None
        # Structure composition only pays off for AdamGNN (the only model
        # consuming ego-nets/normalisation here); baselines still get the
        # collated-batch cache.
        radius = (model.encoder.radius
                  if isinstance(model, AdamGNNGraphClassifier) else None)
        # Member graphs are cast to compute precision once here, so every
        # collated batch and composed structure is born in that dtype.
        dtype = np.dtype(self.config.dtype)
        if (self._structures is None
                or self._structures[0] is not dataset
                or self._structures[1] != (radius, dtype)):
            self._structures = (dataset, (radius, dtype), DatasetStructures(
                dataset.graphs, radius=radius, labels=dataset.label_array,
                dtype=dtype))
        return self._structures[2]

    def _batches(self, structures: Optional[DatasetStructures],
                 dataset: GraphDataset, index: np.ndarray,
                 rng: Optional[np.random.Generator] = None,
                 ) -> Iterator[Tuple[GraphBatch, Optional[BatchStructure]]]:
        """Yield ``(batch, structure)`` pairs for one pass over ``index``."""
        size = self.config.batch_size
        if structures is None:
            # The escape-hatch path also runs at compute precision (the
            # cached pipeline casts member graphs at init).
            return ((batch.astype(self.config.dtype), None) for batch
                    in iterate_batches(dataset, index, size, rng))
        return (structures.batch(chunk)
                for chunk in _index_chunks(index, size, rng))

    def cache_stats(self, model: Optional[Module] = None,
                    ) -> Dict[str, dict]:
        """Hit/miss counters of every cache the hot path touches."""
        stats: Dict[str, dict] = {"segment_plans": segment_plan_stats()}
        if self._structures is not None:
            stats["batch_cache"] = self._structures[2].stats()
        if isinstance(model, AdamGNNGraphClassifier):
            stats["structure_cache"] = \
                model.encoder.structure_cache.stats()
        if self._capture is not None:
            stats["training_tape"] = self._capture.stats()
        if self._dp_worker_stats:
            stats = _merge_stat_sections(stats, self._dp_worker_stats)
        return stats

    # ------------------------------------------------------------------
    # Step execution (captured or plain)
    # ------------------------------------------------------------------
    def _train_step(self, model: Module, batch: GraphBatch,
                    structure: Optional[BatchStructure],
                    rng: np.random.Generator, rngs: List) -> Tensor:
        """One forward + loss + backward, through the capture registry.

        The capture key pins the batch and (when present) its composed
        structure — the content-keyed batch cache hands back the same
        objects for a recurring chunk, so identity *is* the
        frozen-structure contract.  With capture off this is a plain
        forward, loss and backward.
        """
        def forward_loss() -> Tensor:
            logits, extra = _model_forward(model, batch, structure)
            loss = cross_entropy(logits, batch.y)
            if isinstance(extra, Tensor):       # DiffPool's aux terms
                return loss + extra
            return adamgnn_loss(
                loss, extra, self.config, self_optimisation_loss,
                lambda h: sampled_reconstruction_loss(
                    h, batch.edge_index, batch.num_nodes, rng))

        pins = (batch,) if structure is None else (batch, structure)
        return run_step(self._capture, pins, self.config.dtype, rngs,
                        forward_loss)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, model: Module, dataset: GraphDataset,
                 index: np.ndarray) -> float:
        """Accuracy over the graphs selected by ``index``.

        Evaluation chunks are deterministic, so the collated val/test
        batches (and their composed structures) are cache hits on every
        pass after the first.
        """
        model.eval().astype(self.config.dtype)
        structures = self._structures_for(model, dataset)
        correct = 0
        total = 0
        # Evaluation never calls backward, so the forward runs grad-free:
        # same kernels, same values, none of the tape bookkeeping.
        with default_dtype(self.config.dtype), no_grad():
            for batch, structure in self._batches(structures, dataset, index):
                logits, _ = _model_forward(model, batch, structure)
                correct += int((logits.data.argmax(axis=-1)
                                == batch.y).sum())
                total += batch.num_graphs
        return correct / total if total else 0.0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, model: Module, dataset: GraphDataset) -> GraphTrainResult:
        cfg = self.config
        if max(cfg.num_procs, cfg.num_shards) > 1:
            # Data-parallel mode (TrainConfig(num_procs=...) or the
            # REPRO_DP_PROCS env var): the sharded coordinator owns the
            # loop.  Passing ``inner=self`` shares this trainer's
            # structure pipeline and capture registry with the
            # coordinator, so evaluation caches (and, in serial-sharded
            # mode, training collation) stay observable through
            # ``cache_stats``.  The single-shard fallback calls
            # ``_fit_plain`` directly, so there is no recursion.
            from .dataparallel import ShardedTrainer
            return ShardedTrainer(cfg, inner=self).fit(model, dataset)
        return self._fit_plain(model, dataset)

    def _fit_plain(self, model: Module,
                   dataset: GraphDataset) -> GraphTrainResult:
        """The single-process training loop (no shard scheduling)."""
        self._dp_worker_stats = None
        rng = make_rng(self.config.seed + 307)
        structures = self._structures_for(model, dataset)
        rngs = [rng] + model_rngs(model)

        def steps(epoch: int) -> Iterator[Tensor]:
            for batch, structure in self._batches(
                    structures, dataset, dataset.train_index, rng=rng):
                model.zero_grad()
                yield self._train_step(model, batch, structure, rng, rngs)

        log = train_epochs(
            model, self.config, steps,
            lambda: self.evaluate(model, dataset, dataset.val_index),
            clip_grad_norm)
        return self._result(model, dataset, log)

    def _result(self, model: Module, dataset: GraphDataset, log: EpochLog,
                sharding: Optional[Dict] = None) -> GraphTrainResult:
        """Score the restored model on the test and validation splits."""
        return GraphTrainResult(
            test_accuracy=self.evaluate(model, dataset, dataset.test_index),
            val_accuracy=self.evaluate(model, dataset, dataset.val_index),
            sharding=sharding, **vars(log))
