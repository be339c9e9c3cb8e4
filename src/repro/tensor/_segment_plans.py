"""Sorted-reduction plans and the gather-scale-scatter product.

``np.add.at`` / ``np.maximum.at`` are unbuffered scatter loops and run
10-100x slower than NumPy's vectorised reductions.  Every segment reduction
over the same ``segment_ids`` array can instead share one *plan*: sort the
ids once (a stable counting sort), then every sum/max over them is a
sparse-dense product with the sort's 0/1 selector (wide sums) or a single
``ufunc.reduceat`` sweep over the sorted order.  A gather-scale-scatter
``out[r_k] += w_k · x[c_k]`` needs no plan: the counting sort turns its
triplets into a weighted CSR matrix for one product
(:func:`gather_scale_scatter`), so its often one-shot ids stay uncached.

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
from typing import Iterator, Optional, Tuple

import numpy as np
from scipy.sparse import _sparsetools as _sptools

#: Upper bound on cached plans; LRU-evicted beyond this.  Each entry pins
#: its ids array, so the bound also caps the pinned memory.  A reshuffled
#: PROTEINS fit (4 steps and a validation pass per epoch) builds ~120 plans
#: an epoch; almost every hit lands in the step that built the plan, and
#: ~10 an epoch reach back one epoch (the validation batches' structure).
#: The bound holds ~8 epochs, so it never laps an epoch, and after 40
#: epochs it reads 2,494 hits, 4,780 misses and 3,756 evictions with
#: ~23 MB pinned, mostly by plans no later step asks for.
PLAN_CACHE_CAPACITY = 1024

#: 2-D segment sums switch from ``add.reduceat`` to a CSR sparse-dense
#: product at this many input rows.  The two sum a segment in different
#: orders (``reduceat`` pairwise, the product left to right), so moving the
#: threshold moves bits: the recorded fingerprint pins hold with it here.
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
    """One ids array, counting-sorted once, reusable for any reduction over it.

    Attributes
    ----------
    ids:
        The segment-id array the plan was built for (pinned).
    num_segments:
        Number of output rows.
    indptr:
        Row pointer: segment ``s`` is ``order[indptr[s]:indptr[s+1]]``.
    order:
        Permutation sorting ``ids`` (stable, so reductions over equal ids
        keep the original relative order — relevant for float summation).
    starts:
        Index into the sorted order where each *present* segment begins.
    present:
        The distinct segment ids, ascending (one per ``starts`` entry).
    """

    __slots__ = ("ids", "num_segments", "indptr", "order", "starts",
                 "present")

    def __init__(self, ids: np.ndarray, num_segments: int):
        self.ids = ids
        self.num_segments = n = int(num_segments)
        keys = np.asarray(ids, dtype=np.int64)
        p = keys.shape[0]
        if p and (keys.min() < 0 or keys.max() >= n):
            raise ValueError(f"segment ids must lie in [0, {n}), got range "
                             f"[{keys.min()}, {keys.max()}]")
        # Counting sort of arange(P), O(P + n); the bool data is unread.
        self.indptr, self.order, _ = _coo_tocsr(
            keys, np.arange(p, dtype=np.int64), np.zeros(p, dtype=bool), n,
            p)
        self.present = np.flatnonzero(self.indptr[1:] != self.indptr[:-1])
        self.starts = self.indptr[self.present]

    @property
    def counts(self) -> np.ndarray:
        """Per-segment element counts, length ``num_segments``."""
        return np.diff(self.indptr)

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
        if values.ndim == 2 and values.shape[0] >= _SPARSE_MIN_ROWS:
            # Sparse-dense product with the 0/1 selector whose rows are
            # the sorted segments: one C pass, no (P, d) gather.
            dense = np.ascontiguousarray(values, dtype=dtype)
            return _csr_product(self.indptr, self.order,
                                np.ones(dense.shape[0], dtype), dense,
                                self.num_segments)
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


def _coo_tocsr(rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
               num_rows: int, num_cols: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays of the triplets by a stable counting sort (each row keeps
    its entries in input order).  No bounds check: ``0 <= rows < num_rows``
    is the caller's to guarantee."""
    nnz = rows.shape[0]
    indptr = np.empty(num_rows + 1, dtype=np.int64)
    indices = np.empty(nnz, dtype=np.int64)
    values = np.empty(nnz, dtype=data.dtype)
    _sptools.coo_tocsr(num_rows, num_cols, nnz, rows, cols, data,
                       indptr, indices, values)
    return indptr, indices, values


def _csr_product(indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, dense: np.ndarray,
                 num_rows: int) -> np.ndarray:
    """``A @ dense`` for a raw CSR ``A``, ``data`` in ``dense``'s dtype.

    Direct kernel call: scipy's ``@`` re-derives index dtypes and
    re-validates shapes on every product, measurable at this frequency.
    """
    n_rows, n_vecs = dense.shape
    out = np.zeros((num_rows, n_vecs), dtype=dense.dtype)
    _sptools.csr_matvecs(num_rows, n_rows, n_vecs, indptr, indices, data,
                         dense.ravel(), out.ravel())
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


def row_ids(index: np.ndarray, num_rows: int) -> np.ndarray:
    """``index`` as int64 row ids in ``[0, num_rows)``.

    Negative ids wrap as NumPy indexing wraps them, so a gather's backward
    sends each gradient row where the forward read it, on either kernel
    path; ids outside ``[-num_rows, num_rows)`` raise ``IndexError`` as the
    forward does.  Without a negative id the array keeps its identity (the
    plan cache key).
    """
    ids = np.asarray(index, dtype=np.int64)
    if ids.size:
        low, high = ids.min(), ids.max()
        if low < -num_rows or high >= num_rows:
            raise IndexError(f"row ids must lie in [{-num_rows}, "
                             f"{num_rows}), got range [{low}, {high}]")
        if low < 0:
            ids = np.where(ids < 0, ids + num_rows, ids)
    return ids


def scatter_add_rows(values: np.ndarray, index: np.ndarray,
                     num_rows: int) -> np.ndarray:
    """``np.add.at(zeros, index, values)`` for a 1-D integer ``index``:
    the backward of every row gather (``x[idx]``), the hottest scatter in
    training.  Negative ids wrap (:func:`row_ids`).  The output follows
    the values' dtype."""
    ids = row_ids(index, num_rows)
    if _FAST:
        return plan_for(ids, num_rows).sum(values)
    out = np.zeros((num_rows,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, ids, values)
    return out


def gather_scale_scatter(x: np.ndarray, cols: np.ndarray,
                         weights: np.ndarray, rows: np.ndarray,
                         num_rows: int) -> np.ndarray:
    """``out[rows[k]] += weights[k] · x[cols[k]]`` for a 2-D ``x``.

    Bit for bit ``plan_for(rows).sum(x[cols] * weights[:, None])``, with no
    cached plan (the ids are often fresh every step).  From
    ``_SPARSE_MIN_ROWS`` terms up, a counting sort turns the triplets
    straight into a weighted CSR matrix and one product sums it with no
    ``(P, d)`` block: each term is one rounded product added in stable row
    order, as the 0/1 selector summed the pre-scaled rows.  ``rows`` and
    ``cols`` must lie in range; the C kernels do no bounds check.
    """
    dtype = np.result_type(weights, x)
    dense = np.ascontiguousarray(x, dtype=dtype)
    scale = np.ascontiguousarray(weights, dtype=dtype)
    if rows.shape[0] < _SPARSE_MIN_ROWS:
        return SegmentReductionPlan(rows, num_rows).sum(
            np.take(dense, cols, axis=0) * scale[:, None])
    indptr, indices, data = _coo_tocsr(rows, cols, scale, num_rows,
                                       dense.shape[0])
    return _csr_product(indptr, indices, data, dense, num_rows)


def pair_scatter(x: np.ndarray, weights: np.ndarray, index_a: np.ndarray,
                 index_b: np.ndarray) -> np.ndarray:
    """``out[a_p] += w_p · x[b_p]`` and ``out[b_p] += w_p · x[a_p]``: the
    backward of the pair dots ``x[a_p] · x[b_p]``, as one scatter over the
    joined ``[a, b]`` rows.  Negative ids wrap (:func:`row_ids`)."""
    n = x.shape[0]
    a = row_ids(index_a, n)
    b = row_ids(index_b, n)
    if _FAST:
        return gather_scale_scatter(x, np.concatenate([b, a]),
                                    np.concatenate([weights, weights]),
                                    np.concatenate([a, b]), n)
    w = weights[:, None]
    out = np.zeros_like(x)
    np.add.at(out, a, w * x[b])
    np.add.at(out, b, w * x[a])
    return out


#: Rows per block of :func:`gathered_dot`: two (block, d) gathers stay in
#: cache where full (P, d) gathers would stream through memory.
_DOT_BLOCK = 1024


def gathered_dot(a: np.ndarray, index_a: np.ndarray, b: np.ndarray,
                 index_b: np.ndarray) -> np.ndarray:
    """``out[p] = a[index_a[p]] · b[index_b[p]]``, bit for bit the
    ``einsum`` over whole gathers, but taken in row blocks: no ``(P, d)``
    gather is allocated, or kept alive by a backward closure."""
    p = index_a.shape[0]
    out = np.empty(p, dtype=np.result_type(a, b))
    for start in range(0, p, _DOT_BLOCK):
        stop = start + _DOT_BLOCK
        np.einsum("ij,ij->i", np.take(a, index_a[start:stop], axis=0),
                  np.take(b, index_b[start:stop], axis=0),
                  out=out[start:stop])
    return out


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
    _HITS = 0
    _MISSES = 0
    _EVICTIONS = 0
