"""Segment (scatter/gather) operations — the message-passing primitives.

A GNN layer in the PyG style reduces to three steps: *gather* node states
onto edges, *transform* the edge messages, and *segment-reduce* messages back
to nodes.  The gather step is :func:`repro.tensor.ops.gather_rows`; this
module provides the reductions.

``segment_ids`` are int64 arrays assigning each row of ``values`` to an
output segment; segments need not be sorted or contiguous.  Empty segments
yield zeros (sum/mean) or zeros (max, by convention, so that isolated nodes
keep a well-defined state).

Every reduction runs through a
:class:`~repro.tensor._segment_plans.SegmentReductionPlan`: the ids array
is counting-sorted once per call (or handed back by a serving workspace's
replay), and each forward *and* backward reduction over it is a single
sparse-dense product or ``ufunc.reduceat`` sweep instead of an unbuffered
``np.add.at`` / ``np.maximum.at`` scatter loop.
:func:`gather_scale_segment_sum` needs no plan: both of its directions are one weighted-CSR product
(:func:`repro.tensor._segment_plans.gather_scale_scatter`).  The original
scatter-loop kernels are retained (reachable via
:func:`repro.tensor._segment_plans.naive_kernels`) so the test suite can
check the fast paths against the old semantics on identical inputs.
"""

from __future__ import annotations

import numpy as np

from . import _sanitize_state as _san
from . import _segment_plans as _plans
from .ops import exp, gather_rows
from .tensor import DEFAULT_DTYPE, ArrayLike, Tensor


def _check_ids(segment_ids: np.ndarray, num_segments: int, n_rows: int,
               planned: bool = False) -> np.ndarray:
    """``segment_ids`` as int64, checked against ``values``' rows and the
    segment range.  ``planned`` ops leave the range to the
    :class:`~repro.tensor._segment_plans.SegmentReductionPlan` they build,
    whose check raises the same error, so each op scans its ids once (a
    serving replay reuses the plan its capture pass built and checked)."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"segment_ids must be 1-D, got shape {ids.shape}")
    if ids.shape[0] != n_rows:
        raise ValueError(f"segment_ids length {ids.shape[0]} does not match "
                         f"values rows {n_rows}")
    if not planned and ids.size and (ids.min() < 0
                                     or ids.max() >= num_segments):
        raise ValueError(f"segment ids must lie in [0, {num_segments}), got "
                         f"range [{ids.min()}, {ids.max()}]")
    return ids


def _naive_segment_sum(data: np.ndarray, ids: np.ndarray,
                       num_segments: int) -> np.ndarray:
    out = np.zeros((num_segments,) + data.shape[1:], dtype=data.dtype)
    np.add.at(out, ids, data)
    return out


def _naive_segment_max(data: np.ndarray, ids: np.ndarray,
                       num_segments: int) -> np.ndarray:
    out = np.full((num_segments,) + data.shape[1:], -np.inf,
                  dtype=data.dtype)
    np.maximum.at(out, ids, data)
    out[~np.isfinite(out)] = 0.0
    return out


def segment_sum(values: ArrayLike, segment_ids: np.ndarray,
                num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` output rows.

    ``out[s] = Σ_{i : segment_ids[i] == s} values[i]``.
    """
    values = values if isinstance(values, Tensor) else Tensor(values)
    fast = _plans.fast_kernels_enabled()
    ids = _check_ids(segment_ids, num_segments, values.data.shape[0], fast)
    if _san.ENABLED:
        _san.check_segment_inputs("segment_sum", values.data, ids)
    if fast:
        plan = _plans.plan_for(ids, num_segments)
        out_data = plan.sum(values.data)
    else:
        out_data = _naive_segment_sum(values.data, ids, num_segments)

    def backward(grad: np.ndarray) -> None:
        values._accumulate(grad[ids])

    return values._make_child(out_data, (values,), backward)


def segment_count(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Number of rows in each segment, as a plain array (no gradient)."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    return np.bincount(ids, minlength=num_segments).astype(DEFAULT_DTYPE)


def segment_mean(values: ArrayLike, segment_ids: np.ndarray,
                 num_segments: int) -> Tensor:
    """Mean of rows per segment; empty segments produce zeros."""
    totals = segment_sum(values, segment_ids, num_segments)
    counts = np.maximum(segment_count(segment_ids, num_segments), 1.0)
    shape = (num_segments,) + (1,) * (totals.data.ndim - 1)
    # Reciprocals are formed in float64 (segment_count) and adopt the
    # totals' dtype through _coerce — no silent promotion of a float32 graph.
    return totals * (1.0 / counts.reshape(shape))


def segment_max(values: ArrayLike, segment_ids: np.ndarray,
                num_segments: int) -> Tensor:
    """Per-segment maximum; empty segments produce zeros.

    Gradient flows to every element attaining the segment maximum, split
    evenly among ties (the same subgradient convention as ``Tensor.max``).
    """
    values = values if isinstance(values, Tensor) else Tensor(values)
    fast = _plans.fast_kernels_enabled()
    ids = _check_ids(segment_ids, num_segments, values.data.shape[0], fast)
    if _san.ENABLED:
        _san.check_segment_inputs("segment_max", values.data, ids)
    if fast:
        plan = _plans.plan_for(ids, num_segments)
        out_data = plan.max(values.data)
    else:
        out_data = _naive_segment_max(values.data, ids, num_segments)

    def backward(grad: np.ndarray) -> None:
        winners = (values.data == out_data[ids]).astype(values.data.dtype)
        # Split gradient among ties within each segment.  Dividing at
        # segment granularity keeps the per-row work to one gather and one
        # multiply (num_segments ≪ rows on the readout path).
        if fast:
            tie_counts = plan.sum(winners)
        else:
            tie_counts = _naive_segment_sum(winners, ids, num_segments)
        np.maximum(tie_counts, 1.0, out=tie_counts)
        shared = grad / tie_counts
        winners *= shared[ids]
        values._accumulate(winners)

    return values._make_child(out_data, (values,), backward)


def gather_scale_segment_sum(x: ArrayLike, gather_ids: np.ndarray,
                             scale: ArrayLike, segment_ids: np.ndarray,
                             num_segments: int) -> Tensor:
    """Fused ``segment_sum(x[gather_ids] * scale[:, None], segment_ids)``.

    This is the sparse-matrix product at the heart of unpooling
    (``S @ H``) and of the attention-weighted hyper-node pooling: row ``p``
    of the implicit message matrix is ``scale_p · x[gather_ids_p]``,
    reduced into ``segment_ids_p``.  Both ``x`` and ``scale`` may carry
    gradients.  The fused node builds no ``(P, d)`` block: the forward and
    the ``x`` gradient are one weighted-CSR product each, the ``scale``
    gradient blocked row dots.  Negative ``gather_ids`` wrap.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    scale = scale if isinstance(scale, Tensor) else Tensor(scale)
    n = x.data.shape[0]
    cols = _plans.row_ids(gather_ids, n)
    ids = _check_ids(segment_ids, num_segments, cols.shape[0])
    if scale.data.shape != cols.shape:
        raise ValueError(f"scale must be 1-D of length {cols.shape[0]}, "
                         f"got shape {scale.data.shape}")
    if _san.ENABLED:
        _san.check_segment_inputs("gather_scale_segment_sum", x.data, ids)
    if not _plans.fast_kernels_enabled():
        messages = gather_rows(x, cols) * scale.reshape(-1, 1)
        return segment_sum(messages, ids, num_segments)

    weights = scale.data
    out_data = _plans.gather_scale_scatter(x.data, cols, weights, ids,
                                           num_segments)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(_plans.gather_scale_scatter(grad, ids, weights,
                                                      cols, n))
        if scale.requires_grad:
            scale._accumulate(_plans.gathered_dot(grad, ids, x.data, cols))

    return x._make_child(out_data, (x, scale), backward)


def segment_softmax(scores: ArrayLike, segment_ids: np.ndarray,
                    num_segments: int) -> Tensor:
    """Softmax over the entries of each segment.

    This is the attention-normalisation step of GAT-style layers and of the
    fitness score f_s in Eq. 2 of the paper: scores on edges incident to the
    same target node are normalised to a probability distribution.

    The fast path is a fused kernel: one plan-based max (stabilisation), one
    exp, one plan-based sum, and an analytic backward
    ``ds = out * (g - Σ_segment g·out)`` — the exact softmax Jacobian-vector
    product, identical to what autograd derives for the compositional form.
    """
    scores = scores if isinstance(scores, Tensor) else Tensor(scores)
    fast = _plans.fast_kernels_enabled()
    ids = _check_ids(segment_ids, num_segments, scores.data.shape[0], fast)
    if _san.ENABLED:
        _san.check_segment_inputs("segment_softmax", scores.data, ids)
    if not fast:
        return _segment_softmax_reference(scores, ids, num_segments)

    plan = _plans.plan_for(ids, num_segments)
    # Subtracting the per-segment max is a constant shift: it changes
    # neither the value nor the gradient of the softmax.  Each step below
    # reuses its freshly gathered operand in place.
    peak = plan.max(scores.data)
    shift = peak[ids]
    np.subtract(scores.data, shift, out=shift)
    e = np.exp(shift, out=shift)
    denom = plan.sum(e)
    # Guard empty segments (no entries reference them, value is irrelevant).
    denom[denom == 0.0] = 1.0
    pulled = denom[ids]
    out_data = np.divide(e, pulled, out=pulled)

    def backward(grad: np.ndarray) -> None:
        dot = plan.sum(grad * out_data)
        scores._accumulate(out_data * (grad - dot[ids]))

    return scores._make_child(out_data, (scores,), backward)


def _segment_softmax_reference(scores: Tensor, ids: np.ndarray,
                               num_segments: int) -> Tensor:
    """Original compositional softmax; backward comes from autograd."""
    seg_peak = _naive_segment_max(scores.data, ids, num_segments)
    shifted = scores - Tensor(seg_peak[ids])
    numer = exp(shifted)
    denom = segment_sum(numer, ids, num_segments)
    denom_safe = denom + Tensor((denom.data == 0).astype(denom.data.dtype))
    return numer / gather_rows(denom_safe, ids)


def segment_normalize(values: ArrayLike, segment_ids: np.ndarray,
                      num_segments: int, eps: float = 1e-12) -> Tensor:
    """Divide each entry by the sum of its segment (L1 normalisation)."""
    values = values if isinstance(values, Tensor) else Tensor(values)
    ids = np.asarray(segment_ids, dtype=np.int64)
    totals = segment_sum(values, ids, num_segments)
    totals_safe = totals + eps
    return values / gather_rows(totals_safe, ids)
