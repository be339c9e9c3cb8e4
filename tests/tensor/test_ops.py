"""Forward-value tests for the functional ops."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import tensor as T
from repro.analysis.sanitize import sanitizer_paused
from repro.tensor import Tensor


class TestElementwise:
    def test_exp_log_inverse(self):
        x = Tensor(np.array([0.1, 1.0, 2.5]))
        assert np.allclose(T.log(T.exp(x)).data, x.data)

    def test_log_with_eps(self):
        assert np.isfinite(T.log(Tensor([0.0]), eps=1e-9).data).all()

    def test_sqrt(self):
        assert np.allclose(T.sqrt(Tensor([4.0, 9.0])).data, [2.0, 3.0])

    def test_absolute(self):
        assert np.allclose(T.absolute(Tensor([-2.0, 3.0])).data, [2.0, 3.0])

    def test_clip(self):
        out = T.clip(Tensor([-5.0, 0.5, 5.0]), -1.0, 1.0)
        assert np.allclose(out.data, [-1.0, 0.5, 1.0])


def _special_values(dtype):
    info = np.finfo(dtype)
    return np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
                     info.tiny, -info.tiny, info.smallest_subnormal,
                     -info.smallest_subnormal, info.max, info.min],
                    dtype=dtype)


class TestNonlinearities:
    def test_relu(self):
        assert np.allclose(T.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_relu_bytes_equal_select(self, dtype, data):
        # Any float, subnormals and non-finite values included, plus the
        # special values forced in: the output bytes must equal the select.
        values = data.draw(hnp.arrays(
            dtype, st.integers(0, 40),
            elements=hnp.from_dtype(np.dtype(dtype))))
        x = np.concatenate([_special_values(dtype), values])
        x = x[data.draw(st.permutations(range(x.size)))]
        expect = np.where(x > 0, x, 0)
        # Non-finite inputs are the point here, so the NaN/Inf sanitizer
        # (armed for the whole run under REPRO_SANITIZE=1) is paused.
        with sanitizer_paused():
            plain = T.relu(Tensor(x, dtype=dtype)).data
            with T.no_grad(), T.use_workspace(T.Workspace()):
                pooled = T.relu(Tensor(x, dtype=dtype)).data
        for out in (plain, pooled):
            assert out.dtype == expect.dtype
            assert out.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_maps_negative_zero_to_positive_zero(self, dtype):
        # np.fmax(-0.0, 0) keeps the -0.0 in some vector-loop tails (seen
        # in float64 at odd lengths), so every length is tried.
        for n in range(1, 40):
            out = T.relu(Tensor(np.full(n, -0.0, dtype=dtype),
                                dtype=dtype)).data
            assert not np.signbit(out).any()

    def test_leaky_relu_slope(self):
        out = T.leaky_relu(Tensor([-10.0, 10.0]), negative_slope=0.1)
        assert np.allclose(out.data, [-1.0, 10.0])

    def test_elu_negative_branch(self):
        out = T.elu(Tensor([-100.0, 1.0]))
        assert out.data[0] == pytest.approx(-1.0)
        assert out.data[1] == pytest.approx(1.0)

    def test_sigmoid_range_and_extremes(self):
        out = T.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
        assert np.allclose(out.data, [0.0, 0.5, 1.0])
        assert np.isfinite(out.data).all()

    def test_tanh(self):
        assert T.tanh(Tensor([0.0])).data[0] == 0.0

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)) * 50)
        out = T.softmax(x, axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)
        assert (out.data >= 0).all()

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(1).normal(size=(3, 5))
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        assert np.allclose(T.log_softmax(x).data,
                           np.log(T.softmax(x).data))


class TestStructural:
    def test_concat_axis0_and_1(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.zeros((2, 3)))
        assert T.concat([a, b], axis=0).shape == (4, 3)
        assert T.concat([a, b], axis=1).shape == (2, 6)

    def test_stack(self):
        a, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        out = T.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        assert np.allclose(out.data[0], 1.0)

    def test_where(self):
        cond = np.array([True, False])
        out = T.where(cond, Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        assert np.allclose(out.data, [1.0, 2.0])

    def test_gather_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(x, np.array([3, 0, 0]))
        assert np.allclose(out.data, x.data[[3, 0, 0]])

    def test_matmul_alias(self):
        a = np.random.default_rng(3).normal(size=(2, 3))
        b = np.random.default_rng(4).normal(size=(3, 2))
        assert np.allclose(T.matmul(Tensor(a), Tensor(b)).data, a @ b)

    def test_square_norm(self):
        x = Tensor(np.array([[3.0, 4.0]]))
        assert T.square_norm(x).data[0] == pytest.approx(25.0)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(np.ones((10, 10)))
        out = T.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_p_zero_is_identity(self, rng):
        x = Tensor(np.ones((4, 4)))
        assert T.dropout(x, 0.0, rng) is x

    def test_invalid_p_raises(self, rng):
        with pytest.raises(ValueError):
            T.dropout(Tensor(np.ones(4)), 1.0, rng)

    def test_inverted_scaling_preserves_mean(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = T.dropout(x, 0.3, rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)
        # Survivors are scaled by 1/(1-p).
        survivors = out.data[out.data > 0]
        assert np.allclose(survivors, 1.0 / 0.7)
