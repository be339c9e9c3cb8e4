"""Segment-op tests: forward semantics, gradients, and invariants."""

from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import (Tensor, assert_gradients_close, naive_kernels,
                          no_grad, segment_count, segment_max, segment_mean,
                          segment_normalize, segment_softmax, segment_sum)
from repro.tensor.workspace import Workspace, use_workspace


@pytest.fixture
def values():
    return Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)


IDS = np.array([0, 2, 0, 1])


class TestSegmentSum:
    def test_forward(self, values):
        out = segment_sum(values, IDS, 3)
        assert np.allclose(out.data[0], values.data[0] + values.data[2])
        assert np.allclose(out.data[1], values.data[3])
        assert np.allclose(out.data[2], values.data[1])

    def test_empty_segment_is_zero(self, values):
        out = segment_sum(values, IDS, 5)
        assert np.allclose(out.data[3], 0.0)
        assert np.allclose(out.data[4], 0.0)

    def test_gradient(self, values):
        assert_gradients_close(lambda v: segment_sum(v, IDS, 3) * 2.0,
                               [values])

    def test_bad_ids_rejected(self, values):
        with pytest.raises(ValueError):
            segment_sum(values, np.array([0, 1, 2, 5]), 3)
        with pytest.raises(ValueError):
            segment_sum(values, np.array([0, 1]), 3)
        with pytest.raises(ValueError):
            segment_sum(values, IDS.reshape(2, 2), 3)


class TestSegmentMeanMax:
    def test_mean_forward(self, values):
        out = segment_mean(values, IDS, 3)
        assert np.allclose(out.data[0],
                           (values.data[0] + values.data[2]) / 2.0)

    def test_mean_empty_segment_zero(self, values):
        assert np.allclose(segment_mean(values, IDS, 4).data[3], 0.0)

    def test_mean_gradient(self, values):
        assert_gradients_close(lambda v: segment_mean(v, IDS, 4), [values])

    def test_max_forward(self):
        v = Tensor(np.array([[1.0], [5.0], [3.0], [2.0]]))
        out = segment_max(v, IDS, 3)
        assert out.data[0, 0] == 3.0
        assert out.data[1, 0] == 2.0
        assert out.data[2, 0] == 5.0

    def test_max_empty_segment_zero(self, values):
        assert segment_max(values, IDS, 4).data[3].sum() == 0.0

    def test_max_gradient_unique(self, rng):
        v = Tensor(rng.permutation(8).reshape(4, 2).astype(float),
                   requires_grad=True)
        assert_gradients_close(lambda t: segment_max(t, IDS, 3), [v],
                               eps=1e-7)

    def test_max_gradient_splits_ties(self):
        v = Tensor(np.array([[2.0], [1.0], [2.0], [0.0]]),
                   requires_grad=True)
        segment_max(v, np.array([0, 0, 0, 1]), 2).sum().backward()
        # Rows 0 and 2 tie for the segment-0 max; each gets half.
        assert v.grad[0, 0] == pytest.approx(0.5)
        assert v.grad[2, 0] == pytest.approx(0.5)
        assert v.grad[1, 0] == 0.0

    def test_count(self):
        assert segment_count(IDS, 4).tolist() == [2.0, 1.0, 1.0, 0.0]


class TestSegmentSoftmax:
    def test_rows_sum_to_one_per_segment(self, rng):
        scores = Tensor(rng.normal(size=10) * 30)
        ids = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 2])
        out = segment_softmax(scores, ids, 3)
        for seg in range(3):
            assert out.data[ids == seg].sum() == pytest.approx(1.0)

    def test_singleton_segment_is_one(self):
        out = segment_softmax(Tensor([3.0]), np.array([0]), 1)
        assert out.data[0] == pytest.approx(1.0)

    def test_stability_with_huge_scores(self):
        out = segment_softmax(Tensor([1000.0, 999.0]), np.array([0, 0]), 1)
        assert np.isfinite(out.data).all()

    def test_gradient(self, rng):
        scores = Tensor(rng.normal(size=6), requires_grad=True)
        ids = np.array([0, 0, 1, 1, 1, 2])
        w = Tensor(rng.normal(size=6))
        assert_gradients_close(lambda s: segment_softmax(s, ids, 3) * w,
                               [scores])


class TestSegmentNormalize:
    def test_l1_per_segment(self):
        v = Tensor(np.array([1.0, 3.0, 2.0, 2.0]))
        out = segment_normalize(v, np.array([0, 0, 1, 1]), 2)
        assert np.allclose(out.data, [0.25, 0.75, 0.5, 0.5])

    def test_gradient(self, rng):
        v = Tensor(rng.random(5) + 0.5, requires_grad=True)
        ids = np.array([0, 0, 0, 1, 1])
        assert_gradients_close(lambda t: segment_normalize(t, ids, 2) ** 2.0,
                               [v])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 20), segments=st.integers(1, 5),
       seed=st.integers(0, 10_000))
def test_property_segment_sum_preserves_total(n, segments, seed):
    """Σ_s segment_sum[s] == Σ_i values[i] for any assignment."""
    rng = np.random.default_rng(seed)
    values = Tensor(rng.normal(size=(n, 3)))
    ids = rng.integers(0, segments, size=n)
    out = segment_sum(values, ids, segments)
    assert np.allclose(out.data.sum(axis=0), values.data.sum(axis=0))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 20), segments=st.integers(1, 5),
       seed=st.integers(0, 10_000))
def test_property_segment_softmax_is_distribution(n, segments, seed):
    """Each non-empty segment's softmax sums to one and is non-negative."""
    rng = np.random.default_rng(seed)
    scores = Tensor(rng.normal(size=n) * 10)
    ids = rng.integers(0, segments, size=n)
    out = segment_softmax(scores, ids, segments)
    assert (out.data >= 0).all()
    for seg in np.unique(ids):
        assert out.data[ids == seg].sum() == pytest.approx(1.0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10_000))
def test_property_segment_mean_matches_numpy(n, seed):
    """segment_mean agrees with a per-segment numpy mean."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 2))
    ids = rng.integers(0, 3, size=n)
    out = segment_mean(Tensor(values), ids, 3)
    for seg in range(3):
        members = values[ids == seg]
        expected = members.mean(axis=0) if members.size else np.zeros(2)
        assert np.allclose(out.data[seg], expected)


@pytest.mark.parametrize("op", [segment_sum, segment_max, segment_softmax])
@pytest.mark.parametrize("mode", ["fast", "naive", "workspace"])
@pytest.mark.parametrize("bad", [-1, 3])
def test_out_of_range_ids_raise_on_every_path(op, mode, bad):
    """One range check per op, ahead of the kernels: the same error with
    the reference kernels, the fast plans, and inside a serving
    workspace (whose capture pass builds the plans)."""
    ids = np.array([0, bad, 2, 1])
    message = (r"segment ids must lie in \[0, 3\), got range "
               rf"\[{min(bad, 0)}, {max(bad, 2)}\]")
    scores = Tensor(np.arange(4.0))
    with ExitStack() as stack:
        if mode == "naive":
            stack.enter_context(naive_kernels())
        if mode == "workspace":
            stack.enter_context(no_grad())
            stack.enter_context(use_workspace(Workspace()))
        with pytest.raises(ValueError, match=message):
            op(scores, ids, 3)
