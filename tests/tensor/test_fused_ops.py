"""Fused autograd nodes vs their compositional references.

Every fused kernel added for the minibatch hot path keeps its original
compositional formulation reachable (directly, or through
``naive_kernels()``); these tests run both on identical inputs and demand
agreement in values *and* gradients.  Forward values must match exactly
where the fused path performs the same arithmetic (``affine``,
``leaky_relu_project``); identity-rearranged computations (the KL loss's
single-log form) get ``allclose`` at tight tolerance plus a numeric
gradient check.
"""

import numpy as np
import pytest

from repro.analysis.sanitize import sanitizer_paused
from repro.core.flyback import FlybackAggregator, _weighted_combine
from repro.core.losses import (_pair_bce_fused,
                               _self_optimisation_loss_reference,
                               sampled_reconstruction_loss,
                               self_optimisation_loss)
from repro.nn import Linear
from repro.tensor import (Tensor, affine, concat, leaky_relu,
                          leaky_relu_project, log, naive_kernels,
                          numeric_gradient, sigmoid)


def run_pair(build, seed_grad):
    """Run ``build`` under both kernel modes; return (out, grads) pairs."""
    results = []
    for naive in (False, True):
        if naive:
            with naive_kernels():
                out, params = build()
        else:
            out, params = build()
        out.backward(seed_grad)
        results.append((out.data.copy(), [p.grad.copy() for p in params]))
    return results


# ---------------------------------------------------------------------------
# affine (Linear forward)
# ---------------------------------------------------------------------------
def test_affine_matches_compositional_exactly():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(9, 5))
    w = rng.normal(size=(5, 3))
    b = rng.normal(size=3)
    g = rng.normal(size=(9, 3))

    xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    out = affine(xt, wt, bt)
    out.backward(g)

    xr, wr, br = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    ref = (xr @ wr) + br
    ref.backward(g)

    assert np.array_equal(out.data, ref.data)
    assert np.allclose(xt.grad, xr.grad, atol=1e-14)
    assert np.allclose(wt.grad, wr.grad, atol=1e-14)
    assert np.allclose(bt.grad, br.grad, atol=1e-14)


def test_linear_layer_uses_fused_affine_consistently():
    rng = np.random.default_rng(1)
    layer = Linear(4, 6, rng=np.random.default_rng(3))
    x = rng.normal(size=(7, 4))
    g = rng.normal(size=(7, 6))

    def build():
        layer.zero_grad()
        return layer(Tensor(x.copy(), requires_grad=True)), \
            list(layer.parameters())

    (fast_out, fast_grads), (naive_out, naive_grads) = run_pair(build, g)
    assert np.array_equal(fast_out, naive_out)
    for a, b in zip(fast_grads, naive_grads):
        assert np.allclose(a, b, atol=1e-14)


# ---------------------------------------------------------------------------
# leaky_relu_project
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("operand_shape", [(6,), (6, 2)])
def test_leaky_relu_project_matches_compositional(operand_shape):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 6))
    x[0, :] = 0.0                      # exact zeros: subgradient tie point
    a = rng.normal(size=operand_shape)

    xt = Tensor(x.copy(), requires_grad=True)
    at = Tensor(a.copy(), requires_grad=True)
    out = leaky_relu_project(xt, at)
    g = rng.normal(size=out.shape)
    out.backward(g)

    xr = Tensor(x.copy(), requires_grad=True)
    ar = Tensor(a.copy(), requires_grad=True)
    ref = leaky_relu(xr) @ ar
    ref.backward(g)

    assert np.array_equal(out.data, ref.data)
    assert np.allclose(xt.grad, xr.grad, atol=1e-14)
    assert np.allclose(at.grad, ar.grad, atol=1e-14)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("operand_shape", [(6,), (6, 3)])
def test_leaky_relu_project_input_grad_is_the_masked_scale(dtype,
                                                           operand_shape):
    """The slope factor multiplies each entry by exactly 1 or exactly the
    slope: the bits of scaling only the ``x <= 0`` entries in place."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(9, 6)).astype(dtype)
    x[0, :] = 0.0
    x[1, :3] = -0.0
    x[2, :3] = (np.nan, np.inf, -np.inf)
    a = rng.normal(size=operand_shape).astype(dtype)
    g = rng.normal(size=(9,) + operand_shape[1:]).astype(dtype)
    g[3] = np.inf

    xt = Tensor(x.copy(), requires_grad=True, dtype=dtype)
    # Non-finite inputs are the point here, so the NaN/Inf sanitizer
    # (armed for the whole run under REPRO_SANITIZE=1) is paused.
    with np.errstate(invalid="ignore"), sanitizer_paused():
        leaky_relu_project(xt, Tensor(a, dtype=dtype)).backward(g)
        want = (np.multiply(g[:, None], a[None, :]) if a.ndim == 1
                else np.matmul(g, a.T))
        np.multiply(want, dtype(0.2), out=want, where=x <= 0)
    assert xt.grad.dtype == want.dtype
    assert np.array_equal(xt.grad.view(np.uint8), want.view(np.uint8))


def test_leaky_relu_project_numeric_gradient():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 4)) + 0.1   # keep clear of the kink
    a = rng.normal(size=4)

    xt = Tensor(x.copy(), requires_grad=True)
    at = Tensor(a.copy(), requires_grad=True)
    leaky_relu_project(xt, at).sum().backward()
    for wrt, tensor in enumerate((xt, at)):
        numeric = numeric_gradient(
            leaky_relu_project, (Tensor(x.copy(), requires_grad=True),
                                 Tensor(a.copy(), requires_grad=True)), wrt)
        assert np.allclose(tensor.grad, numeric, atol=1e-6)


# ---------------------------------------------------------------------------
# flyback weighted combine
# ---------------------------------------------------------------------------
def test_weighted_combine_matches_compositional_loop():
    rng = np.random.default_rng(4)
    n, d, k = 10, 5, 3
    h0 = rng.normal(size=(n, d))
    msgs = [rng.normal(size=(n, d)) for _ in range(k)]
    beta = rng.random((k, n))
    g = rng.normal(size=(n, d))

    h0t = Tensor(h0.copy(), requires_grad=True)
    mt = [Tensor(m.copy(), requires_grad=True) for m in msgs]
    bt = Tensor(beta.copy(), requires_grad=True)
    out = _weighted_combine(h0t, mt, bt)
    out.backward(g)

    h0r = Tensor(h0.copy(), requires_grad=True)
    mr = [Tensor(m.copy(), requires_grad=True) for m in msgs]
    br = Tensor(beta.copy(), requires_grad=True)
    ref = h0r
    for i in range(k):
        ref = ref + mr[i] * br[i].reshape(-1, 1)
    ref.backward(g)

    assert np.allclose(out.data, ref.data, atol=1e-14)
    assert np.allclose(h0t.grad, h0r.grad, atol=1e-14)
    assert np.allclose(bt.grad, br.grad, atol=1e-14)
    for a, b in zip(mt, mr):
        assert np.allclose(a.grad, b.grad, atol=1e-14)


def test_flyback_forward_fast_vs_naive():
    rng = np.random.default_rng(5)
    agg = FlybackAggregator(4, rng=np.random.default_rng(6))
    h0 = rng.normal(size=(8, 4))
    msgs = [rng.normal(size=(8, 4)) for _ in range(2)]
    g = rng.normal(size=(8, 4))

    def build():
        agg.zero_grad()
        combined, _ = agg(Tensor(h0.copy(), requires_grad=True),
                          [Tensor(m.copy()) for m in msgs])
        return combined, list(agg.parameters())

    (fast_out, fast_grads), (naive_out, naive_grads) = run_pair(build, g)
    assert np.allclose(fast_out, naive_out, atol=1e-12)
    for a, b in zip(fast_grads, naive_grads):
        assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# self-optimisation (KL) loss
# ---------------------------------------------------------------------------
def kl_case(seed, n=12, d=4, num_egos=5, duplicate=False):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, d))
    egos = rng.choice(n, size=num_egos, replace=False).astype(np.int64)
    if duplicate:
        egos[1] = egos[0]             # scatter path must accumulate
    return h, egos


@pytest.mark.parametrize("duplicate", [False, True])
def test_self_optimisation_loss_fused_vs_reference(duplicate):
    h, egos = kl_case(7, duplicate=duplicate)

    ht = Tensor(h.copy(), requires_grad=True)
    out = self_optimisation_loss(ht, egos)
    out.backward()

    hr = Tensor(h.copy(), requires_grad=True)
    ref = _self_optimisation_loss_reference(hr, egos, mu=1.0)
    ref.backward()

    assert np.allclose(out.data, ref.data, atol=1e-12)
    assert np.allclose(ht.grad, hr.grad, atol=1e-10)


def test_self_optimisation_loss_target_is_detached():
    """No numeric gradcheck here, and deliberately so: the target
    distribution P is treated as a constant (the DEC convention both
    implementations share), so the backward pass is the gradient of
    KL(P‖Q) *with P frozen* — not of the forward scalar as a function of
    ``h``.  What must hold instead: the fused gradient equals the
    autograd-derived gradient of the reference, which freezes P the same
    way (covered above), and P itself carries no autograd history."""
    h, egos = kl_case(8, n=9, d=3, num_egos=4)
    ht = Tensor(h.copy(), requires_grad=True)
    out = self_optimisation_loss(ht, egos)
    assert out.requires_grad
    out.backward()
    assert ht.grad is not None
    # Same loss value whether or not gradients are being tracked.
    frozen = self_optimisation_loss(Tensor(h.copy()), egos)
    assert float(frozen.data) == pytest.approx(float(out.data), abs=1e-12)


# ---------------------------------------------------------------------------
# sampled reconstruction (pair BCE) loss
# ---------------------------------------------------------------------------
def bce_reference(h, positives, negatives):
    """Concatenated pair-logit + BCE formulation (the pre-fusion path)."""
    pos = sigmoid((h[positives[0]] * h[positives[1]]).sum(axis=-1))
    neg = sigmoid((h[negatives[0]] * h[negatives[1]]).sum(axis=-1))
    scores = concat([pos, neg])
    targets = np.concatenate([np.ones(pos.shape[0]), np.zeros(neg.shape[0])])
    eps = 1e-12
    return -(Tensor(targets) * log(scores + eps)
             + Tensor(1.0 - targets) * log(1.0 - scores + eps)).mean()


def test_pair_bce_fused_matches_bce_formulation():
    rng = np.random.default_rng(9)
    n, d = 11, 4
    h = rng.normal(size=(n, d))
    positives = rng.integers(0, n, size=(2, 7)).astype(np.int64)
    negatives = rng.integers(0, n, size=(2, 5)).astype(np.int64)

    ht = Tensor(h.copy(), requires_grad=True)
    out = _pair_bce_fused(ht, positives, negatives)
    out.backward()

    hr = Tensor(h.copy(), requires_grad=True)
    ref = bce_reference(hr, positives, negatives)
    ref.backward()

    # The fused path uses the exact softplus form; the sigmoid+log
    # reference clips with eps, so agreement is close, not bitwise.
    assert np.allclose(out.data, ref.data, atol=1e-9)
    assert np.allclose(ht.grad, hr.grad, atol=1e-7)


def test_pair_bce_fused_numeric_gradient():
    rng = np.random.default_rng(10)
    n, d = 8, 3
    h = rng.normal(size=(n, d))
    positives = rng.integers(0, n, size=(2, 6)).astype(np.int64)
    negatives = rng.integers(0, n, size=(2, 6)).astype(np.int64)

    ht = Tensor(h.copy(), requires_grad=True)
    _pair_bce_fused(ht, positives, negatives).backward()
    numeric = numeric_gradient(
        lambda t: _pair_bce_fused(t, positives, negatives),
        (Tensor(h.copy(), requires_grad=True),), 0)
    assert np.allclose(ht.grad, numeric, atol=1e-6)


def test_sampled_reconstruction_loss_fast_vs_naive():
    """Same rng seed → same sampled negatives → near-identical loss/grads."""
    rng = np.random.default_rng(11)
    n, d = 12, 4
    h = rng.normal(size=(n, d))
    src = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
    dst = np.array([1, 2, 3, 4, 5, 0], dtype=np.int64)
    edge_index = np.concatenate(
        [np.stack([src, dst]), np.stack([dst, src])], axis=1)

    def build(naive):
        ht = Tensor(h.copy(), requires_grad=True)
        sample_rng = np.random.default_rng(99)
        if naive:
            with naive_kernels():
                out = sampled_reconstruction_loss(ht, edge_index, n,
                                                  sample_rng)
        else:
            out = sampled_reconstruction_loss(ht, edge_index, n, sample_rng)
        out.backward()
        return float(out.data), ht.grad.copy()

    fast_loss, fast_grad = build(False)
    naive_loss, naive_grad = build(True)
    assert fast_loss == pytest.approx(naive_loss, abs=1e-9)
    assert np.allclose(fast_grad, naive_grad, atol=1e-8)
