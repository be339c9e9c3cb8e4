"""Sorted-reduction plans for the segment/scatter kernels.

``np.add.at`` / ``np.maximum.at`` are unbuffered scatter loops and run
10-100x slower than NumPy's vectorised reductions.  Every segment reduction
over the same ``segment_ids`` array can instead share one *plan*: argsort
the ids once, then every sum/max over those ids becomes a gather into
sorted order followed by a single ``ufunc.reduceat`` sweep.

Plans are cached per ids array.  The cache key is the array's memory
identity (data pointer, shape, strides, dtype), not its contents, so a hit
costs O(1) regardless of how many pairs the array holds, and two NumPy
*views* of the same rows (e.g. ``src, dst = edge_index`` unpacked freshly
each forward pass) resolve to the same plan.  Each cache entry keeps a
strong reference to its ids array, which pins the memory and guarantees the
key can never alias a different live array.  The one contract this imposes
on callers: segment-id arrays must be treated as immutable while in use
(all structural arrays in this library already are).

The module depends only on NumPy/SciPy, so both :mod:`repro.tensor.ops`
and :mod:`repro.tensor.segment` can build on it without an import cycle.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import numpy as np
from scipy.sparse import _sparsetools as _sptools

#: Upper bound on cached plans; LRU-evicted beyond this.  Each entry pins
#: its ids array, so the bound also caps the pinned memory.  Sized above a
#: minibatch epoch's working set (stable per-batch structural ids plus the
#: fresh pooled-level ids of every step): a smaller bound made the LRU lap
#: itself once per epoch, evicting the long-lived entries the cache exists
#: to keep.
PLAN_CACHE_CAPACITY = 1024

#: 2-D segment sums switch from ``add.reduceat`` to a CSR sparse-dense
#: product at this many input rows — below it the matrix build costs more
#: than it saves.
_SPARSE_MIN_ROWS = 512

_FAST = True


def fast_kernels_enabled() -> bool:
    """Whether the sorted-reduction kernels are active (default True)."""
    return _FAST


@contextmanager
def naive_kernels() -> Iterator[None]:
    """Context manager forcing the original ``ufunc.at`` code paths.

    Exists so the test suite can run the fast kernels against the old
    semantics on identical inputs; has no production use.
    """
    global _FAST
    previous = _FAST
    _FAST = False
    try:
        yield
    finally:
        _FAST = previous


class SegmentReductionPlan:
    """One ids array, argsorted once, reusable for any reduction over it.

    Attributes
    ----------
    ids:
        The segment-id array the plan was built for (pinned).
    num_segments:
        Number of output rows.
    order:
        Permutation sorting ``ids`` (stable, so reductions over equal ids
        keep the original relative order — relevant for float summation).
    starts:
        Index into the sorted order where each *present* segment begins.
    present:
        The distinct segment ids, ascending (one per ``starts`` entry).
    counts:
        Per-segment element counts, length ``num_segments``.
    """

    __slots__ = ("ids", "num_segments", "order", "starts", "present",
                 "_counts", "_scatter")

    def __init__(self, ids: np.ndarray, num_segments: int):
        self.ids = ids
        self.num_segments = int(num_segments)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        if sorted_ids.size:
            boundary = np.empty(sorted_ids.size, dtype=bool)
            boundary[0] = True
            np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=boundary[1:])
            starts = np.flatnonzero(boundary)
            present = sorted_ids[starts]
        else:
            starts = np.zeros(0, dtype=np.int64)
            present = np.zeros(0, dtype=np.int64)
        self.order = order
        self.starts = starts
        self.present = present
        self._counts = None
        self._scatter: Dict[str, Tuple[np.ndarray, np.ndarray,
                                       np.ndarray]] = {}

    @property
    def counts(self) -> np.ndarray:
        if self._counts is None:
            self._counts = np.bincount(self.ids,
                                       minlength=self.num_segments)
        return self._counts

    def scatter_for(self, dtype: np.dtype) -> Tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]:
        """``(indptr, indices, data)`` of the CSR selector in ``dtype``.

        A sparse-dense product with this selector is the fastest
        segment-sum for wide 2-D values (single C pass, no (P, d) gather
        materialised).  Built lazily per dtype — the raw C kernel requires
        the matrix data and the dense operand to agree — with the index
        structure shared between the float32 and float64 variants.  Stored
        as bare arrays rather than a ``scipy.sparse.csr_matrix``: the
        constructor re-derives index dtypes (a content scan) and
        re-validates the format on every build, which is measurable when
        fresh ids (one negative-sample scatter per training step) build a
        plan each step.
        """
        key = np.dtype(dtype).char
        triple = self._scatter.get(key)
        if triple is None:
            p = self.ids.shape[0]
            if self._scatter:
                # Reuse the structure arrays of an existing variant.
                indptr, indices, _ = next(iter(self._scatter.values()))
            else:
                # The plan already holds the CSR structure: row s of the
                # selector covers positions ``order[indptr[s]:indptr[s+1]]``
                # (ascending, because the argsort is stable), so the matrix
                # is assembled directly — no COO round-trip, no sort.
                indptr = np.zeros(self.num_segments + 1, dtype=np.int64)
                np.cumsum(self.counts, out=indptr[1:])
                indices = self.order
            triple = (indptr, indices, np.ones(p, dtype=dtype))
            self._scatter[key] = triple
        return triple

    def _csr_sum(self, values: np.ndarray, dtype: np.dtype) -> np.ndarray:
        indptr, indices, data = self.scatter_for(dtype)
        dense = np.ascontiguousarray(values, dtype=dtype)
        # Direct kernel call: scipy's ``@`` re-derives index dtypes
        # and re-validates shapes on every product, which is
        # measurable at this call frequency.  csr_matvecs adds into the
        # zeroed accumulator.
        out = np.zeros((self.num_segments, dense.shape[1]), dtype=dtype)
        n_rows, n_vecs = dense.shape
        _sptools.csr_matvecs(self.num_segments, n_rows, n_vecs,
                             indptr, indices, data,
                             dense.ravel(), out.ravel())
        return out

    def sum(self, values: np.ndarray,
            dtype: Optional[np.dtype] = None) -> np.ndarray:
        """``out[s] = Σ_{i: ids[i]==s} values[i]``; empty segments are 0.

        ``dtype`` defaults to the values' own dtype (dtype stability); the
        1-D path always accumulates in float64 internally (``np.bincount``)
        and casts at the boundary.
        """
        if dtype is None:
            dtype = values.dtype
        if values.ndim == 1:
            out = np.bincount(self.ids, weights=values,
                              minlength=self.num_segments)
            return out if out.dtype == dtype else out.astype(dtype)
        if values.ndim == 2 and values.shape[0] and (
                self._scatter or values.shape[0] >= _SPARSE_MIN_ROWS):
            # Sparse-dense product: fastest for wide inputs, but the CSR
            # build is not free, so small one-shot plans (fresh pooled-level
            # ids every epoch) take the reduceat path below instead.
            out = self._csr_sum(values, np.dtype(dtype))
            return out
        out = np.zeros((self.num_segments,) + values.shape[1:], dtype=dtype)
        if self.starts.size:
            out[self.present] = np.add.reduceat(values[self.order],
                                                self.starts, axis=0)
        return out

    def max(self, values: np.ndarray,
            dtype: Optional[np.dtype] = None) -> np.ndarray:
        """Per-segment maximum; empty or non-finite segments yield 0.

        Matches the semantics of the original ``np.maximum.at`` kernel,
        which seeded with ``-inf`` and zeroed every non-finite result.
        """
        if dtype is None:
            dtype = values.dtype
        out = np.zeros((self.num_segments,) + values.shape[1:], dtype=dtype)
        if self.starts.size:
            peak = np.maximum.reduceat(values[self.order],
                                       self.starts, axis=0)
            out[self.present] = np.where(np.isfinite(peak), peak, 0.0)
        return out


def _array_key(arr: np.ndarray) -> Tuple:
    interface = arr.__array_interface__
    return (interface["data"][0], arr.shape, arr.strides, arr.dtype.str)


_CACHE: "OrderedDict[Tuple, SegmentReductionPlan]" = OrderedDict()
_HITS = 0
_MISSES = 0
_EVICTIONS = 0


def plan_for(ids: np.ndarray, num_segments: int) -> SegmentReductionPlan:
    """Return the (possibly cached) reduction plan for ``ids``."""
    global _HITS, _MISSES, _EVICTIONS
    key = _array_key(ids) + (int(num_segments),)
    plan = _CACHE.get(key)
    if plan is not None:
        _HITS += 1
        _CACHE.move_to_end(key)
        return plan
    _MISSES += 1
    plan = SegmentReductionPlan(ids, num_segments)
    _CACHE[key] = plan
    if len(_CACHE) > PLAN_CACHE_CAPACITY:
        _CACHE.popitem(last=False)
        _EVICTIONS += 1
    return plan


def scatter_add_rows(values: np.ndarray, ids: np.ndarray,
                     num_rows: int) -> np.ndarray:
    """Fast ``np.add.at(zeros, ids, values)`` for 1-D integer ``ids``.

    This is the backward pass of every row gather (``x[idx]``), which is
    the single hottest scatter in training.  The output follows the
    values' dtype.
    """
    return plan_for(ids, num_rows).sum(values)


#: Concatenated id arrays per (ids_a, ids_b) identity pair, LRU-bounded.
#: Entries pin both sources, which keeps the pointer-based keys valid.
_PAIR_IDS_CACHE: "OrderedDict[Tuple, Tuple]" = OrderedDict()
_PAIR_IDS_CAPACITY = 256


def joined_pair_ids(ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
    """``np.concatenate([ids_a, ids_b])`` with identity-stable caching.

    The paired-gather backwards (``pair_dot``, the sampled-BCE decoder)
    scatter two value blocks into the same output rows; reducing over the
    concatenated ids does both in one plan sweep.  Caching the
    concatenation per source-identity pair keeps the joined array's own
    identity — and therefore its reduction plan and CSR selector — stable
    across training steps whenever the sources are stable.
    """
    key = _array_key(ids_a) + _array_key(ids_b)
    hit = _PAIR_IDS_CACHE.get(key)
    if hit is not None:
        _PAIR_IDS_CACHE.move_to_end(key)
        return hit[2]
    joined = np.concatenate([ids_a, ids_b])
    _PAIR_IDS_CACHE[key] = (ids_a, ids_b, joined)
    if len(_PAIR_IDS_CACHE) > _PAIR_IDS_CAPACITY:
        _PAIR_IDS_CACHE.popitem(last=False)
    return joined


def segment_plan_stats() -> dict:
    """Dict-shaped counters matching ``StructureCache.stats()``.

    The uniform shape lets trainers surface every cache's effectiveness
    in one report (``trainer.cache_stats(model)``).
    """
    return {"hits": _HITS, "misses": _MISSES, "evictions": _EVICTIONS,
            "entries": len(_CACHE), "capacity": PLAN_CACHE_CAPACITY}


def clear_plan_cache() -> None:
    """Drop all cached plans (releases the pinned ids arrays)."""
    global _HITS, _MISSES, _EVICTIONS
    _CACHE.clear()
    _PAIR_IDS_CACHE.clear()
    _HITS = 0
    _MISSES = 0
    _EVICTIONS = 0
