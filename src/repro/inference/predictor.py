"""The serving-side forward engine.

A :class:`Predictor` owns everything a deployed model needs per request:
the grad-mode switch, a captured structural plan per served batch, and
the structure pipeline that collates dataset chunks into cached
:class:`~repro.graph.GraphBatch` objects.

Plan keying
-----------
A captured plan (see :mod:`repro.tensor.workspace`) replays correctly
only for the batch it was recorded on: the coarsening hierarchy of an
AdamGNN forward depends on the *data*, not just on the batch's outer
dimensions.  Plans are therefore keyed by the identity of the batch
object itself, with the entry pinning the batch so the key can never
alias a recycled object (the contract the training tape's keys and
:class:`~repro.graph.StructureCache` keep too).  Served batches are stable objects in practice: the
:class:`~repro.core.DatasetStructures` pipeline returns the cached
collation for a repeated chunk, so a repeated batch replays its plan
instead of rebuilding ego-networks, selection and connectivity.  A batch
object never seen before simply pays one capture pass.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core import AdamGNNGraphClassifier, AdamGNNOutput, DatasetStructures
from ..datasets import GraphDataset
from ..graph import GraphBatch
from ..nn import Module
from ..tensor import (Tensor, Workspace, default_dtype, no_grad,
                      resolve_dtype, use_workspace)

#: Default bound on live captured plans; least-recently-served batches are
#: dropped beyond it.  Each plan pins its batch and that batch's coarsening
#: hierarchy, so this also bounds the engine's resident plan memory.
DEFAULT_MAX_ARENAS = 256


class Predictor:
    """Grad-free inference engine for a trained model.

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.Module`.  Graph-classification models are
        served through :meth:`predict_batch` / :meth:`predict`; node-level
        models (plain ``model(x, edge_index, edge_weight)`` signature)
        through :meth:`predict_nodes`.
    dtype:
        Serving precision.  Defaults to the model's own parameter dtype
        (i.e. whatever precision it was trained at).
    max_arenas:
        LRU bound on per-batch captured structure plans.

    The model is switched to eval mode once at construction; every
    forward runs under ``no_grad()`` and replays the batch's captured
    plan.  Returned arrays are copies the caller owns.

    **Frozen-model contract.**  A plan records the batch's coarsening
    hierarchy (pooled-level ego-networks, the ego-selection outcome, the
    detached connectivity product) — pure functions of the batch while
    the weights stay fixed, recomputed by every training-mode forward
    because there they track the moving fitness scores.  If you mutate
    the model's parameters, call :meth:`invalidate` so the plans are
    re-captured.
    """

    def __init__(self, model: Module, dtype=None,
                 max_arenas: int = DEFAULT_MAX_ARENAS):
        params = model.parameters()
        if dtype is None:
            dtype = params[0].data.dtype if params else np.float64
        self.dtype = resolve_dtype(dtype)
        self.model = model.eval().astype(self.dtype)
        self.max_arenas = int(max_arenas)
        if self.max_arenas < 1:
            # At zero the LRU below would evict the entry it just
            # inserted, un-pinning key objects whose plan is still in use
            # — the exact recycled-id() aliasing hazard pinning exists to
            # rule out.
            raise ValueError(
                f"max_arenas must be >= 1, got {max_arenas!r}")
        #: id(key objects) → (pinned key objects, Workspace)
        self._arenas: "OrderedDict[Tuple[int, ...], Tuple[Tuple, Workspace]]" \
            = OrderedDict()
        #: id(dataset) → (weakref to the dataset, DatasetStructures).
        #: Weakly keyed: the entry dies with the dataset (the weakref
        #: callback prunes it), so serving never pins a retired dataset's
        #: graphs in memory.  ``GraphDataset`` is an eq-comparing dataclass
        #: (unhashable), hence id keys + a liveness check on lookup rather
        #: than a WeakKeyDictionary.
        self._structures: Dict[int, Tuple["weakref.ref[GraphDataset]",
                                          DatasetStructures]] = {}

    # ------------------------------------------------------------------
    # Plan management
    # ------------------------------------------------------------------
    def _arena_for(self, key_objects: Tuple[Any, ...]) -> Workspace:
        key = tuple(id(obj) for obj in key_objects)
        entry = self._arenas.get(key)
        if entry is not None:
            self._arenas.move_to_end(key)
            return entry[1]
        workspace = Workspace()
        # Evict *before* inserting: popping after could (at max_arenas
        # bounds) drop the entry just created, whose workspace the caller
        # is about to run a forward in — pinned key objects must outlive
        # every forward that replays against them.
        while len(self._arenas) >= self.max_arenas:
            self._arenas.popitem(last=False)
        # Pinning the key objects keeps the id-based key sound for the
        # lifetime of the entry.
        self._arenas[key] = (key_objects, workspace)
        return workspace

    def invalidate(self) -> None:
        """Drop every captured plan and dataset structure.

        Call after mutating the model's parameters (e.g. fine-tuning or
        an ``astype`` precision change): captured coarsening plans are
        valid only while the weights that produced them stay frozen, and
        cached :class:`DatasetStructures` were cast at the old serving
        dtype.  The serving dtype is re-read from the model so a
        ``model.astype(...)`` followed by ``invalidate()`` serves at the
        model's new precision.  The next serve of each batch pays one
        fresh capture pass.
        """
        self._arenas.clear()
        self._structures.clear()
        params = self.model.parameters()
        if params:
            self.dtype = resolve_dtype(params[0].data.dtype)

    def release_dataset(self, dataset: Optional[GraphDataset] = None) -> None:
        """Drop the cached structures of ``dataset`` (all datasets when
        ``None``) so a retired dataset's graphs can be reclaimed without
        touching the captured plans of everything else."""
        if dataset is None:
            self._structures.clear()
        else:
            self._structures.pop(id(dataset), None)

    def stats(self) -> dict:
        """Aggregate plan counters across every live captured plan.

        On a repeated batch ``structure_hits`` grows while
        ``captured_structures`` stays fixed: the forward replays its plan.
        ``allocations`` is always 0 (nothing is recycled).
        """
        totals = {"arenas": len(self._arenas), "allocations": 0,
                  "captured_structures": 0, "structure_hits": 0}
        for _, workspace in self._arenas.values():
            for key, value in workspace.stats().items():
                totals[key] += value
        return totals

    # ------------------------------------------------------------------
    # Graph classification
    # ------------------------------------------------------------------
    def predict_batch(self, batch: GraphBatch,
                      structure=None) -> np.ndarray:
        """``(num_graphs, num_classes)`` logits for one collated batch.

        The first serve of a batch captures its structural plan; every
        later serve of the same batch object replays it.
        """
        workspace = self._arena_for((batch,) if structure is None
                                    else (batch, structure))
        with default_dtype(self.dtype), no_grad(), use_workspace(workspace):
            logits, _ = self._forward_batch(batch, structure)
        return logits.data.copy()

    def _forward_batch(self, batch: GraphBatch, structure):
        if isinstance(self.model, AdamGNNGraphClassifier):
            return self.model(Tensor(batch.x), batch.edge_index,
                              batch.edge_weight, batch.batch,
                              batch.num_graphs, structure=structure)
        return self.model(batch)

    def _structures_for(self, dataset: GraphDataset) -> DatasetStructures:
        key = id(dataset)
        entry = self._structures.get(key)
        # The liveness check guards the id key against the (tiny) window
        # between a dataset's death and its weakref callback running.
        if entry is not None and entry[0]() is dataset:
            return entry[1]
        radius = (self.model.encoder.radius
                  if isinstance(self.model, AdamGNNGraphClassifier)
                  else None)
        structures = DatasetStructures(
            dataset.graphs, radius=radius, labels=dataset.label_array,
            dtype=self.dtype)
        selfref = weakref.ref(self)

        def _prune(_ref, key=key, selfref=selfref):
            owner = selfref()
            if owner is not None:
                owner._structures.pop(key, None)

        self._structures[key] = (weakref.ref(dataset, _prune), structures)
        return structures

    def predict(self, dataset: GraphDataset, index: np.ndarray,
                batch_size: int = 32) -> np.ndarray:
        """Predicted class labels for the graphs selected by ``index``."""
        structures = self._structures_for(dataset)
        index = np.asarray(index, dtype=np.int64)
        labels = []
        for lo in range(0, index.shape[0], batch_size):
            chunk = index[lo:lo + batch_size]
            if not chunk.size:
                continue
            batch, structure = structures.batch(chunk)
            logits = self.predict_batch(batch, structure)
            labels.append(logits.argmax(axis=-1))
        if not labels:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(labels)

    def evaluate_accuracy(self, dataset: GraphDataset, index: np.ndarray,
                          batch_size: int = 32) -> float:
        """Accuracy over ``index`` — the serving twin of
        ``GraphClassificationTrainer.evaluate`` (identical logits)."""
        index = np.asarray(index, dtype=np.int64)
        if not index.size:
            return 0.0
        predicted = self.predict(dataset, index, batch_size=batch_size)
        return float((predicted == dataset.labels(index)).mean())

    # ------------------------------------------------------------------
    # Node-level models
    # ------------------------------------------------------------------
    def predict_nodes(self, x: np.ndarray, edge_index: np.ndarray,
                      edge_weight: Optional[np.ndarray] = None,
                      ) -> np.ndarray:
        """Per-node output for a ``model(x, edge_index, edge_weight)``
        forward (node classification logits or link-prediction
        embeddings), as a copied array.

        The plan is keyed by the identity of the input arrays — a
        full-batch serving loop reuses the same graph arrays each call,
        so every call after the first replays the captured plan.
        """
        key = ((x, edge_index) if edge_weight is None
               else (x, edge_index, edge_weight))
        workspace = self._arena_for(key)
        with default_dtype(self.dtype), no_grad(), use_workspace(workspace):
            out = self.model(Tensor(x, dtype=self.dtype), edge_index,
                             edge_weight)
        if isinstance(out, tuple):
            out = out[0]
        if isinstance(out, AdamGNNOutput):
            out = out.h
        return out.data.copy()
