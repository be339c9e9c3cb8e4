"""Optimiser tests: convergence on a quadratic, state handling, clipping."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.optim import Adam, clip_grad_norm, clip_grad_value
from repro.tensor import Tensor


def quadratic_loss(param: Parameter) -> Tensor:
    """f(w) = Σ (w - 3)²; minimiser at w = 3."""
    diff = param - 3.0
    return (diff * diff).sum()


def optimize(opt_cls, steps=200, **kwargs) -> Parameter:
    param = Parameter(np.zeros(4))
    opt = opt_cls([param], **kwargs)
    for _ in range(steps):
        opt.zero_grad()
        quadratic_loss(param).backward()
        opt.step()
    return param


class TestAdam:
    def test_converges(self):
        param = optimize(Adam, lr=0.1)
        assert np.allclose(param.data, 3.0, atol=1e-2)

    def test_weight_decay_shrinks_minimiser(self):
        plain = optimize(Adam, lr=0.1)
        decayed = optimize(Adam, lr=0.1, weight_decay=1.0)
        assert np.abs(decayed.data).max() < np.abs(plain.data).max()

    def test_skips_params_without_grad(self):
        a, b = Parameter(np.ones(2)), Parameter(np.ones(2))
        opt = Adam([a, b], lr=0.1)
        (a * 2.0).sum().backward()
        opt.step()
        assert np.allclose(b.data, 1.0)
        assert not np.allclose(a.data, 1.0)

    def test_bias_correction_first_step_magnitude(self):
        # With bias correction, the first Adam step has size ~lr.
        param = Parameter(np.zeros(1))
        opt = Adam([param], lr=0.1)
        (param * 5.0).sum().backward()
        opt.step()
        assert abs(param.data[0]) == pytest.approx(0.1, rel=1e-3)


class TestOptimizerValidation:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)


class TestClipping:
    def test_clip_grad_norm_scales(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_noop_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], max_norm=10.0)
        assert np.allclose(p.grad, 0.1)

    def test_clip_grad_value(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([-5.0, 0.5, 5.0])
        clip_grad_value([p], 1.0)
        assert np.allclose(p.grad, [-1.0, 0.5, 1.0])
