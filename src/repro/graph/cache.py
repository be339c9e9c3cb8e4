"""Memoisation of static graph structure across training epochs.

Full-batch training re-runs the model on the *same* graph every epoch, yet
the forward pass rebuilds purely structural artifacts — λ-hop ego-network
pair lists and the level-0 GCN normalisation — from scratch each time.
None of that depends on learned parameters, so a :class:`StructureCache`
memoises it keyed on the identity of the input arrays: epochs 2..N skip
the structural recomputation entirely.  Pooled-level structure is *not*
cached by the model, because ego selection there depends on learned
fitness scores and genuinely changes between epochs.

Keys use array memory identity (data pointer, shape, strides, dtype) —
an O(1) probe independent of graph size — and every entry keeps strong
references to its key arrays so a hit can never alias a recycled buffer.
The contract this imposes: structural arrays are treated as immutable,
which all loaders in this library respect.  This is the library's only
address-keyed memo; segment plans and SpMM operators are built per call.

The cache is deliberately builder-agnostic (:meth:`StructureCache.get`
takes a callable) so higher layers can memoise their own structures —
``core/pooling.py`` uses it for ego networks — without this module
importing upward across the layering.

Minibatch streams need a second mechanism: batch collation allocates fresh
arrays, so identity keys alone cannot hit across epochs.
:class:`BatchStructureCache` closes that gap by keying on the *index
chunk* that selects the batch's member graphs — content, not memory
identity, because chunks are tiny (≤ batch_size int64s) and hashing them
is O(batch_size), not O(graph size).  A hit returns the previously
collated batch object, whose identity is what keys the step's training
tape.  A miss invokes a caller-supplied builder — ``repro.core.structure``
composes the batch and its level-0 structures from per-graph
precomputations there, keeping this module free of upward imports.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

import numpy as np

from .normalize import normalize_edges

#: Default bound on distinct cached structures.  Sized for "a handful of
#: graphs trained on concurrently" (train/val splits, a few datasets);
#: minibatch streams go through :class:`BatchStructureCache` instead.
DEFAULT_CAPACITY = 32

#: Default bound on distinct cached collated batches.  Val/test chunks and
#: one epoch's worth of train chunks fit comfortably; shuffled train
#: chunks from older epochs are evicted LRU-first.
DEFAULT_BATCH_CAPACITY = 64


def _array_key(arr: np.ndarray) -> Tuple:
    """An array's memory identity: data pointer, shape, strides, dtype."""
    interface = arr.__array_interface__
    return (interface["data"][0], arr.shape, arr.strides, arr.dtype.str)


class StructureCache:
    """Identity-keyed LRU memoiser for per-graph structural computation.

    Parameters
    ----------
    capacity:
        Maximum number of cached entries; least-recently-used entries are
        evicted beyond it.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple, Tuple[Tuple, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Generic memoisation
    # ------------------------------------------------------------------
    def get(self, kind: str, arrays: Tuple[np.ndarray, ...], params: Tuple,
            builder: Callable[[], Any]) -> Any:
        """Return the memoised result of ``builder`` for this structure.

        ``kind`` namespaces the entry, ``arrays`` are the structural inputs
        (keyed by memory identity and pinned by the entry), ``params`` are
        hashable scalars that complete the key (radii, node counts, flags).
        """
        key = (kind, tuple(_array_key(a) for a in arrays), params)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[1]
        self.misses += 1
        value = builder()
        # The stored tuple of input arrays pins their memory for the
        # lifetime of the entry, keeping the pointer-based key sound.
        self._entries[key] = (tuple(arrays), value)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    # ------------------------------------------------------------------
    # Structure-specific helpers
    # ------------------------------------------------------------------
    def unit_edge_weights(self, edge_index: np.ndarray,
                          dtype=np.float64) -> np.ndarray:
        """A stable all-ones weight array for ``edge_index``.

        Synthesising ``np.ones(E)`` fresh every forward pass would make
        every :meth:`normalized_edges` lookup keyed on it miss; this
        returns the same array object for the same edge list (per
        requested ``dtype``, so a float32 run does not alias a float64
        one).
        """
        dt = np.dtype(dtype)
        return self.get("unit-weights", (edge_index,),
                        (edge_index.shape[1], dt.str),
                        lambda: np.ones(edge_index.shape[1], dtype=dt))

    def normalized_edges(self, edge_index: np.ndarray,
                         edge_weight: Optional[np.ndarray], num_nodes: int,
                         add_self_loops: bool = True,
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Memoised :func:`repro.graph.normalize.normalize_edges`.

        ``edge_weight=None`` means unit weights and is folded into the key
        rather than materialised by the caller.
        """
        if edge_weight is None:
            arrays = (edge_index,)
        else:
            arrays = (edge_index, edge_weight)
        return self.get(
            "normalized-edges", arrays,
            (int(num_nodes), bool(add_self_loops), edge_weight is None),
            lambda: normalize_edges(
                edge_index,
                edge_weight if edge_weight is not None
                else self.unit_edge_weights(edge_index),
                num_nodes, add_self_loops=add_self_loops))

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries), "capacity": self.capacity}

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)


class BatchStructureCache:
    """Content-keyed LRU of collated minibatches (plus their structures).

    Parameters
    ----------
    builder:
        Called with the int64 index chunk on a miss; its return value is
        cached verbatim.  ``repro.core.structure.DatasetStructures`` plugs
        in a builder returning ``(GraphBatch, BatchStructure)`` pairs.
    capacity:
        Maximum number of cached chunks (LRU eviction beyond it).

    The key is the chunk's *content* (dtype-normalised bytes), so the
    fixed val/test chunks and any recurring train chunk hit across epochs
    even though the caller re-slices a fresh index array every pass.
    Entries hold collated node-feature arrays, so the capacity bound is
    also the memory bound.
    """

    def __init__(self, builder: Callable[[np.ndarray], Any],
                 capacity: int = DEFAULT_BATCH_CAPACITY):
        self.builder = builder
        self.capacity = int(capacity)
        self._entries: "OrderedDict[bytes, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, chunk: np.ndarray) -> Any:
        """The collated value for ``chunk`` (built on first sight)."""
        chunk = np.ascontiguousarray(chunk, dtype=np.int64)
        key = chunk.tobytes()
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        value = self.builder(chunk)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries), "capacity": self.capacity}

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)
