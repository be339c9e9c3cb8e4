"""Brute-force reference implementations for the segment kernels.

The production kernels went through two generations: the original
``ufunc.at`` scatters (still reachable via ``naive_kernels()``) and the
sorted-reduction / sparse-matmul plans of ``_segment_plans``.  The
references below are written as per-segment Python loops — slow, obviously
correct, and independent of both generations — and every property test
runs against BOTH code paths on identical inputs, covering the hostile
cases explicitly: empty segments, all-negative values, ties in the max,
and unsorted / non-contiguous segment ids.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import (Tensor, clear_plan_cache, fast_kernels_enabled,
                          naive_kernels, plan_for, rowwise_dot,
                          scatter_add_rows, segment_max, segment_mean,
                          segment_plan_stats, segment_softmax, segment_sum)


# ---------------------------------------------------------------------------
# References (per-segment Python loops; no NumPy reductions over ids)
# ---------------------------------------------------------------------------
def ref_segment_sum(values, ids, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:])
    for i, s in enumerate(ids):
        out[s] += values[i]
    return out


def ref_segment_mean(values, ids, num_segments):
    out = ref_segment_sum(values, ids, num_segments)
    for s in range(num_segments):
        count = int(np.sum(ids == s))
        if count:
            out[s] /= count
    return out


def ref_segment_max(values, ids, num_segments):
    """Empty (and non-finite) segments yield 0, matching both kernels."""
    out = np.zeros((num_segments,) + values.shape[1:])
    for s in range(num_segments):
        members = values[ids == s]
        if members.shape[0]:
            peak = members.max(axis=0)
            out[s] = np.where(np.isfinite(peak), peak, 0.0)
    return out


def ref_segment_softmax(scores, ids, num_segments):
    out = np.zeros_like(scores)
    for s in range(num_segments):
        mask = ids == s
        if not mask.any():
            continue
        shifted = np.exp(scores[mask] - scores[mask].max())
        denom = shifted.sum()
        out[mask] = shifted / (denom if denom else 1.0)
    return out


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------
@st.composite
def segment_cases(draw, max_rows=24, max_segments=8, with_cols=True):
    n = draw(st.integers(min_value=1, max_value=max_rows))
    num_segments = draw(st.integers(min_value=1, max_value=max_segments))
    # Unsorted, non-contiguous, possibly missing segments by construction.
    ids = np.asarray(draw(st.lists(
        st.integers(min_value=0, max_value=num_segments - 1),
        min_size=n, max_size=n)), dtype=np.int64)
    element = st.floats(min_value=-50.0, max_value=50.0,
                        allow_nan=False, allow_infinity=False, width=32)
    if with_cols:
        d = draw(st.integers(min_value=1, max_value=3))
        values = np.asarray(draw(st.lists(
            st.lists(element, min_size=d, max_size=d),
            min_size=n, max_size=n)))
    else:
        values = np.asarray(draw(st.lists(element, min_size=n, max_size=n)))
    return values, ids, num_segments


def both_paths(fn):
    """Run ``fn`` on the fast path and under ``naive_kernels()``."""
    fast = fn()
    with naive_kernels():
        assert not fast_kernels_enabled()
        naive = fn()
    assert fast_kernels_enabled()
    return fast, naive


# ---------------------------------------------------------------------------
# Property tests: fast == naive == reference, values and gradients
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(case=segment_cases())
def test_segment_sum_matches_reference(case):
    values, ids, m = case
    expected = ref_segment_sum(values, ids, m)

    def run():
        v = Tensor(values.copy(), requires_grad=True)
        out = segment_sum(v, ids, m)
        out.sum().backward()
        return out.data, v.grad

    (fast_out, fast_grad), (naive_out, naive_grad) = both_paths(run)
    np.testing.assert_allclose(fast_out, expected, atol=1e-9)
    np.testing.assert_allclose(naive_out, expected, atol=1e-9)
    np.testing.assert_allclose(fast_grad, naive_grad, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(case=segment_cases())
def test_segment_mean_matches_reference(case):
    values, ids, m = case
    expected = ref_segment_mean(values, ids, m)

    def run():
        return segment_mean(Tensor(values.copy()), ids, m).data

    fast, naive = both_paths(run)
    np.testing.assert_allclose(fast, expected, atol=1e-9)
    np.testing.assert_allclose(naive, expected, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(case=segment_cases())
def test_segment_max_matches_reference(case):
    values, ids, m = case
    expected = ref_segment_max(values, ids, m)

    def run():
        v = Tensor(values.copy(), requires_grad=True)
        out = segment_max(v, ids, m)
        out.sum().backward()
        return out.data, v.grad

    (fast_out, fast_grad), (naive_out, naive_grad) = both_paths(run)
    np.testing.assert_allclose(fast_out, expected, atol=1e-9)
    np.testing.assert_allclose(naive_out, expected, atol=1e-9)
    np.testing.assert_allclose(fast_grad, naive_grad, atol=1e-12)


def test_segment_max_all_negative_empty_segment_stays_zero():
    # The original kernel seeded with -inf and zeroed non-finite results;
    # with all-negative inputs an empty segment must report 0, not -inf.
    values = np.array([[-3.0], [-1.5], [-2.0]])
    ids = np.array([0, 0, 2])
    expected = ref_segment_max(values, ids, 4)
    fast, naive = both_paths(
        lambda: segment_max(Tensor(values), ids, 4).data)
    np.testing.assert_array_equal(fast, expected)
    np.testing.assert_array_equal(naive, expected)
    assert fast[1, 0] == 0.0 and fast[3, 0] == 0.0


def test_segment_max_tie_gradient_splits_evenly():
    values = Tensor(np.array([[2.0], [2.0], [1.0]]), requires_grad=True)
    ids = np.array([0, 0, 0])
    segment_max(values, ids, 1).sum().backward()
    np.testing.assert_allclose(values.grad.reshape(-1), [0.5, 0.5, 0.0])


@settings(max_examples=60, deadline=None)
@given(case=segment_cases(with_cols=False))
def test_segment_softmax_matches_reference(case):
    scores, ids, m = case
    expected = ref_segment_softmax(scores, ids, m)

    def run():
        s = Tensor(scores.copy(), requires_grad=True)
        out = segment_softmax(s, ids, m)
        (out * np.arange(1.0, scores.shape[0] + 1)).sum().backward()
        return out.data, s.grad

    (fast_out, fast_grad), (naive_out, naive_grad) = both_paths(run)
    np.testing.assert_allclose(fast_out, expected, atol=1e-9)
    np.testing.assert_allclose(naive_out, expected, atol=1e-9)
    np.testing.assert_allclose(fast_grad, naive_grad, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(case=segment_cases())
def test_scatter_add_rows_matches_reference(case):
    values, ids, m = case
    expected = ref_segment_sum(values, ids, m)
    np.testing.assert_allclose(scatter_add_rows(values, ids, m), expected,
                               atol=1e-9)


# ---------------------------------------------------------------------------
# Plan cache behaviour
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_same_array_hits(self):
        clear_plan_cache()
        ids = np.array([0, 2, 1, 2], dtype=np.int64)
        first = plan_for(ids, 3)
        second = plan_for(ids, 3)
        assert first is second
        stats = segment_plan_stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) \
            == (1, 1, 1)

    def test_views_of_same_rows_share_a_plan(self):
        clear_plan_cache()
        edge_index = np.array([[0, 1, 2], [2, 2, 0]], dtype=np.int64)
        src1, _ = edge_index
        src2, _ = edge_index        # fresh view objects, same memory
        assert plan_for(src1, 3) is plan_for(src2, 3)

    def test_equal_content_different_memory_misses(self):
        clear_plan_cache()
        a = np.array([0, 1, 1], dtype=np.int64)
        b = a.copy()
        assert plan_for(a, 2) is not plan_for(b, 2)

    def test_plan_counts_and_present(self):
        plan = plan_for(np.array([3, 0, 3, 3], dtype=np.int64), 5)
        np.testing.assert_array_equal(plan.counts, [1, 0, 0, 3, 0])
        np.testing.assert_array_equal(plan.present, [0, 3])


def test_rowwise_dot_matches_mul_sum():
    rng = np.random.default_rng(0)
    a_data = rng.normal(size=(6, 4))
    b_data = rng.normal(size=(6, 4))
    a1 = Tensor(a_data.copy(), requires_grad=True)
    b1 = Tensor(b_data.copy(), requires_grad=True)
    out = rowwise_dot(a1, b1)
    (out * np.arange(6.0)).sum().backward()
    a2 = Tensor(a_data.copy(), requires_grad=True)
    b2 = Tensor(b_data.copy(), requires_grad=True)
    ref = (a2 * b2).sum(axis=-1)
    (ref * np.arange(6.0)).sum().backward()
    np.testing.assert_allclose(out.data, ref.data, atol=1e-12)
    np.testing.assert_allclose(a1.grad, a2.grad, atol=1e-12)
    np.testing.assert_allclose(b1.grad, b2.grad, atol=1e-12)


def test_rowwise_dot_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        rowwise_dot(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 3))))
