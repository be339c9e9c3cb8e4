"""Finite-difference certification of every differentiable operation.

These tests are the backbone guarantee of the whole library: if they pass,
any model assembled from these primitives has correct gradients.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import tensor as T
from repro.tensor import Tensor, assert_gradients_close, check_gradients


def leaf(rng, *shape, scale=1.0):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


@pytest.fixture
def x(rng):
    return leaf(rng, 4, 3)


class TestArithmeticGrads:
    def test_add_sub(self, rng, x):
        y = leaf(rng, 4, 3)
        assert_gradients_close(lambda a, b: a + b - (a - b), [x, y])

    def test_broadcast_add(self, rng, x):
        bias = leaf(rng, 3)
        assert_gradients_close(lambda a, b: a + b, [x, bias])

    def test_mul_div(self, rng, x):
        y = Tensor(rng.normal(size=(4, 3)) + 3.0, requires_grad=True)
        assert_gradients_close(lambda a, b: (a * b) / (b + 10.0), [x, y])

    def test_scalar_ops(self, x):
        assert_gradients_close(lambda a: 2.0 * a + 1.0 - a / 4.0, [x])

    def test_neg_pow(self, rng):
        x = Tensor(rng.random((3, 3)) + 0.5, requires_grad=True)
        assert_gradients_close(lambda a: -(a ** 2.5), [x])

    def test_rtruediv(self, rng):
        x = Tensor(rng.random((3, 3)) + 1.0, requires_grad=True)
        assert_gradients_close(lambda a: 1.0 / a, [x])

    def test_matmul_both_sides(self, rng, x):
        y = leaf(rng, 3, 5)
        assert_gradients_close(lambda a, b: a @ b, [x, y])

    def test_matmul_batched(self, rng):
        a = leaf(rng, 2, 3, 4)
        b = leaf(rng, 2, 4, 5)
        assert_gradients_close(lambda p, q: p @ q, [a, b])

    def test_matmul_vector(self, rng, x):
        v = leaf(rng, 3)
        assert_gradients_close(lambda a, b: a @ b, [x, v])


class TestShapeGrads:
    def test_reshape(self, x):
        assert_gradients_close(lambda a: a.reshape(2, 6) * 2.0, [x])

    def test_transpose(self, x):
        assert_gradients_close(lambda a: a.T @ a, [x])

    def test_transpose_axes(self, rng):
        a = leaf(rng, 2, 3, 4)
        assert_gradients_close(lambda t: t.transpose(1, 2, 0) * 3.0, [a])

    def test_getitem_slice(self, x):
        assert_gradients_close(lambda a: a[1:3, :2] ** 2.0, [x])

    def test_getitem_fancy_with_repeats(self, x):
        idx = np.array([0, 0, 2])
        assert_gradients_close(lambda a: a[idx] * 2.0, [x])


class TestReductionGrads:
    def test_sum_all(self, x):
        assert_gradients_close(lambda a: a.sum() * 2.0, [x])

    def test_sum_axis_keepdims(self, x):
        assert_gradients_close(lambda a: a * a.sum(axis=0, keepdims=True), [x])

    def test_mean(self, x):
        assert_gradients_close(lambda a: a.mean(axis=1) ** 2.0, [x])

    def test_max_no_ties(self, rng):
        x = Tensor(rng.permutation(12).reshape(4, 3).astype(float),
                   requires_grad=True)
        assert_gradients_close(lambda a: a.max(axis=0), [x], eps=1e-7)

    def test_min(self, rng):
        x = Tensor(rng.permutation(12).reshape(4, 3).astype(float),
                   requires_grad=True)
        assert_gradients_close(lambda a: a.min(axis=1), [x], eps=1e-7)


class TestOpGrads:
    def test_exp_log(self, rng):
        x = Tensor(rng.random((3, 3)) + 0.5, requires_grad=True)
        assert_gradients_close(lambda a: T.log(T.exp(a) + 1.0), [x])

    def test_sqrt(self, rng):
        x = Tensor(rng.random((3, 3)) + 0.5, requires_grad=True)
        assert_gradients_close(lambda a: T.sqrt(a), [x])

    def test_absolute(self, rng):
        x = Tensor(rng.normal(size=(4, 4)) + 0.1, requires_grad=True)
        assert_gradients_close(lambda a: T.absolute(a), [x])

    def test_sigmoid_tanh(self, x):
        assert_gradients_close(lambda a: T.sigmoid(a) * T.tanh(a), [x])

    def test_relu_family(self, x):
        assert_gradients_close(
            lambda a: T.relu(a) + T.leaky_relu(a, 0.1) + T.elu(a), [x])

    def test_softmax(self, rng, x):
        w = Tensor(rng.normal(size=(4, 3)))
        assert_gradients_close(lambda a: T.softmax(a, axis=-1) * w, [x])

    def test_log_softmax(self, rng, x):
        w = Tensor(rng.normal(size=(4, 3)))
        assert_gradients_close(lambda a: T.log_softmax(a) * w, [x])

    def test_clip_interior(self, rng):
        x = Tensor(rng.uniform(-0.4, 0.4, size=(4, 4)), requires_grad=True)
        assert_gradients_close(lambda a: T.clip(a, -0.5, 0.5) ** 2.0, [x])

    def test_concat(self, rng, x):
        y = leaf(rng, 4, 2)
        assert_gradients_close(lambda a, b: T.concat([a, b], axis=1) * 2.0,
                               [x, y])

    def test_stack(self, rng, x):
        y = leaf(rng, 4, 3)
        assert_gradients_close(lambda a, b: T.stack([a, b]) ** 2.0, [x, y])

    def test_where(self, rng, x):
        cond = rng.random((4, 3)) > 0.5
        y = leaf(rng, 4, 3)
        assert_gradients_close(lambda a, b: T.where(cond, a * 2.0, b * 3.0),
                               [x, y])

    def test_gather_rows(self, x):
        idx = np.array([0, 1, 1, 3, 2])
        assert_gradients_close(lambda a: T.gather_rows(a, idx) * 2.0, [x])

    def test_square_norm(self, x):
        assert_gradients_close(lambda a: T.square_norm(a, axis=-1), [x])


class TestCheckGradientsApi:
    def test_reports_failure_message(self):
        # Deliberately wrong op: forward x*2 with backward claiming grad 3.
        def bad(t):
            out = t * 2.0

            def backward(grad):
                t._accumulate(grad * 3.0)

            return t._make_child(out.data, (t,), backward)

        x = Tensor([1.0, 2.0], requires_grad=True)
        ok, message = check_gradients(bad, [x])
        assert not ok
        assert "max abs error" in message

    def test_skips_non_grad_inputs(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)))  # no grad
        ok, _ = check_gradients(lambda p, q: p * q, [a, b])
        assert ok


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 5),
       seed=st.integers(0, 10_000))
def test_property_softmax_chain_gradients(rows, cols, seed):
    """Random-shaped composite expression always passes gradcheck."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    w = Tensor(rng.normal(size=(rows, cols)))
    ok, message = check_gradients(
        lambda a: T.softmax(a * 2.0 + 1.0, axis=-1) * w, [x])
    assert ok, message


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), d=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_property_mlp_block_gradients(n, d, seed):
    """A Linear→ReLU→sum block has exact gradients for any size."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    w = Tensor(rng.normal(size=(d, 3)), requires_grad=True)
    ok, message = check_gradients(
        lambda a, b: T.relu(a @ b).sum(axis=0), [x, w])
    assert ok, message


def typed_leaf(rng, shape, dtype):
    return Tensor(rng.normal(size=shape).astype(dtype), dtype=dtype,
                  requires_grad=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestFusedOpGrads:
    """Finite-difference checks of the fused ops' hand-derived VJPs at
    both compute dtypes."""

    def test_pair_dot(self, rng, dtype):
        x = typed_leaf(rng, (8, 4), dtype)
        ia = np.array([0, 3, 5, 5, 7])
        ib = np.array([1, 2, 2, 6, 0])
        assert_gradients_close(lambda a: T.pair_dot(a, ia, ib), [x])

    def test_rowwise_dot(self, rng, dtype):
        a = typed_leaf(rng, (6, 4), dtype)
        b = typed_leaf(rng, (6, 4), dtype)
        assert_gradients_close(lambda p, q: T.rowwise_dot(p, q), [a, b])

    def test_dropout(self, rng, dtype):
        x = typed_leaf(rng, (6, 5), dtype)
        # A fresh fixed-seed generator per forward: every evaluation the
        # finite differences make draws the same mask.
        assert_gradients_close(
            lambda a: T.dropout(a, 0.4, np.random.default_rng(7)), [x])

    def test_gather_scale_segment_sum(self, rng, dtype):
        x = typed_leaf(rng, (6, 3), dtype)
        s = typed_leaf(rng, (5,), dtype)
        cols = np.array([0, 2, 2, 4, 5])
        ids = np.array([0, 0, 1, 2, 2])
        assert_gradients_close(
            lambda a, b: T.gather_scale_segment_sum(a, cols, b, ids, 3),
            [x, s])
