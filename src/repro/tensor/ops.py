"""Differentiable functional operations on :class:`~repro.tensor.Tensor`.

These free functions complement the methods on :class:`Tensor` with the
non-linearities, normalisations and structural operations needed by the GNN
models in this repository.  Every function returns a new tensor wired into
the autograd graph; none mutates its inputs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from . import _grad_mode as _grad
from . import _segment_plans as _plans
from .precision import ACCUM_DTYPE
from .tensor import DEFAULT_DTYPE, ArrayLike, Number, Tensor


def _as_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------------------
# Elementwise
# ---------------------------------------------------------------------------
def exp(x: ArrayLike) -> Tensor:
    """Elementwise exponential."""
    x = _as_tensor(x)
    out_data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out_data)

    return x._make_child(out_data, (x,), backward)


def log(x: ArrayLike, eps: float = 0.0) -> Tensor:
    """Elementwise natural logarithm of ``x + eps``."""
    x = _as_tensor(x)
    shifted = x.data + eps
    out_data = np.log(shifted)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad / shifted)

    return x._make_child(out_data, (x,), backward)


def sqrt(x: ArrayLike) -> Tensor:
    """Elementwise square root."""
    x = _as_tensor(x)
    out_data = np.sqrt(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * 0.5 / np.maximum(out_data, 1e-300))

    return x._make_child(out_data, (x,), backward)


def absolute(x: ArrayLike) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the kink)."""
    x = _as_tensor(x)
    out_data = np.abs(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * np.sign(x.data))

    return x._make_child(out_data, (x,), backward)


def clip(x: ArrayLike, low: float, high: float) -> Tensor:
    """Clamp values to ``[low, high]``; gradient flows only inside the range."""
    x = _as_tensor(x)
    out_data = np.clip(x.data, low, high)

    def backward(grad: np.ndarray) -> None:
        inside = (x.data >= low) & (x.data <= high)
        x._accumulate(grad * inside)

    return x._make_child(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# Non-linearities
# ---------------------------------------------------------------------------
def relu(x: ArrayLike) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    x = _as_tensor(x)
    mask = x.data > 0
    # Branchless and byte-equal to np.where(x > 0, x, 0): fmax returns
    # the non-NaN operand, so NaN becomes 0, and adding +0.0 turns the
    # -0.0 that fmax(-0.0, 0) may keep into +0.0.  A data-dependent
    # select mispredicts on random signs (~9x slower on a 52k x 64
    # float32 block, 2-core x86 host).
    out_data = np.fmax(x.data, 0)
    out_data += 0

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return x._make_child(out_data, (x,), backward)


def leaky_relu(x: ArrayLike, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU with the paper's default slope of 0.2 (as in GAT)."""
    x = _as_tensor(x)
    # The mask is backward-only state on the max-form branch; skip it in
    # no-grad mode (the closure is never wired, so the free variable is
    # never read).
    mask = x.data > 0 if (_grad.grad_enabled() or negative_slope > 1.0) \
        else None
    if negative_slope <= 1.0:
        # max(x, s·x) selects x on the positive branch and s·x on the
        # negative one — one temporary fewer than the equivalent np.where.
        out_data = np.multiply(x.data, negative_slope)
        np.maximum(x.data, out_data, out=out_data)
    else:
        out_data = np.where(mask, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(np.where(mask, grad, negative_slope * grad))

    return x._make_child(out_data, (x,), backward)


def leaky_relu_project(x: ArrayLike, a: Tensor,
                       negative_slope: float = 0.2) -> Tensor:
    """Fused ``leaky_relu(x) @ a`` (GAT-style attention projection).

    ``a`` may be ``(d,)`` or ``(d, k)``.  The compositional spelling
    retains the activated ``(n, d)`` array plus a mask and runs four full
    passes on the backward; the fused node keeps only the activation and
    applies the slope mask in place on the outer-product gradient.
    """
    x = _as_tensor(x)
    a = _as_tensor(a)
    if not _plans.fast_kernels_enabled():
        return leaky_relu(x, negative_slope=negative_slope) @ a
    act = np.maximum(x.data, negative_slope * x.data)
    out_data = np.matmul(act, a.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # The slope factor stays in the compute dtype: python-float
            # operands would materialise a float64 (n, d) factor and run
            # the multiply off the float32 fast path, doubling the memory
            # traffic of the hottest backward in the attention stack.
            slope = x.data.dtype.type(negative_slope)
            if a.data.ndim == 1:
                gact = np.multiply(grad[:, None], a.data[None, :])
            else:
                gact = np.matmul(grad, a.data.T)
            # Select-free slope factor f = (1 - m) + m·slope with m the
            # 0/1 mask: every entry is exactly 1 or exactly slope, so
            # the multiply gives the bits of a masked in-place scale
            # (x·1 is bitwise x), without the ``where=`` ufunc loop
            # that ran ~4× slower on float32 blocks.
            m = (x.data <= 0).astype(slope.dtype)
            f = 1 - m
            m *= slope
            f += m
            gact *= f
            x._accumulate(gact)
        if a.requires_grad:
            a._accumulate(act.T @ grad)

    return x._make_child(out_data, (x, a), backward)


def elu(x: ArrayLike, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit."""
    x = _as_tensor(x)
    neg = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    mask = x.data > 0
    out_data = np.where(mask, x.data, neg)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * np.where(mask, 1.0, neg + alpha))

    return x._make_child(out_data, (x,), backward)


def sigmoid(x: ArrayLike) -> Tensor:
    """Numerically stable logistic sigmoid."""
    x = _as_tensor(x)
    # Branch-free form of the usual two-case stabilisation: exp(-|x|) never
    # overflows, and the two cases reduce to a single select over the
    # numerator.  Bit-identical to the masked version, without the boolean
    # gather/scatter passes.
    e = np.exp(-np.abs(x.data))
    out_data = np.where(x.data >= 0, 1.0, e) / (1.0 + e)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out_data * (1.0 - out_data))

    return x._make_child(out_data, (x,), backward)


def tanh(x: ArrayLike) -> Tensor:
    """Hyperbolic tangent."""
    x = _as_tensor(x)
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - out_data ** 2))

    return x._make_child(out_data, (x,), backward)


def softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with the usual max-subtraction stabilisation.

    The normalisation sum accumulates in float64 regardless of the compute
    dtype (a no-op on float64 inputs); the result is cast back to the
    input's dtype at the boundary.
    """
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=axis, keepdims=True, dtype=ACCUM_DTYPE)
    out_data = np.asarray(e / denom, dtype=x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        # dL/dx = s * (g - sum(g * s))
        dot = (grad * out_data).sum(axis=axis, keepdims=True,
                                    dtype=ACCUM_DTYPE)
        dot = dot.astype(grad.dtype, copy=False)
        x._accumulate(out_data * (grad - dot))

    return x._make_child(out_data, (x,), backward)


def log_softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis``; preferred input to NLL-style losses.

    As with :func:`softmax`, the partition-function sum accumulates in
    float64 and casts back at the boundary.
    """
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True,
                                       dtype=ACCUM_DTYPE))
    out_data = shifted - log_z.astype(x.data.dtype, copy=False)
    # The cached softmax exists only for the backward closure — skip the
    # exp pass entirely on the inference path.
    soft = np.exp(out_data) if _grad.grad_enabled() else None

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return x._make_child(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# Structural
# ---------------------------------------------------------------------------
def concat(tensors: Sequence[ArrayLike], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [_as_tensor(t) for t in tensors]
    arrays = [t.data for t in tensors]
    out_data = np.concatenate(arrays, axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    anchor = tensors[0]
    return anchor._make_child(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.split(grad, len(tensors), axis=axis)
        for t, slab in zip(tensors, slabs):
            if t.requires_grad:
                t._accumulate(np.squeeze(slab, axis=axis))

    anchor = tensors[0]
    return anchor._make_child(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select: ``a`` where ``condition`` else ``b``.

    ``condition`` is a plain boolean array (it carries no gradient).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.where(cond, grad, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(cond, 0.0, grad))

    return a._make_child(out_data, (a, b), backward)


def gather_rows(x: ArrayLike, index: np.ndarray) -> Tensor:
    """Select rows ``x[index]``; the backward scatters gradients back.

    This is the "lift node features onto edges" primitive of message passing.
    """
    x = _as_tensor(x)
    idx = np.asarray(index, dtype=np.int64)
    # ``take`` copies what fancy indexing copies, in about half the time
    # on large row gathers.
    out_data = np.take(x.data, idx, axis=0)

    def backward(grad: np.ndarray) -> None:
        if idx.ndim == 1:
            x._accumulate(_plans.scatter_add_rows(grad, idx,
                                                  x.data.shape[0]))
        else:
            full = np.zeros_like(x.data)
            np.add.at(full, idx, grad)
            x._accumulate(full)

    return x._make_child(out_data, (x,), backward)


def dropout(x: ArrayLike, p: float, rng: np.random.Generator,
            training: bool = True, rows: Optional[np.ndarray] = None,
            num_rows: Optional[int] = None) -> Tensor:
    """Inverted dropout: zero with probability ``p``, rescale the rest.

    A no-op when ``training`` is False or ``p == 0``.  When ``x`` holds
    only rows ``rows`` (ascending) of a ``(num_rows, ...)`` block (an
    output-pruned layer), each kept row gets the units the whole block's
    mask would give it, and the stream ends where the whole block's draw
    leaves it.  A ``PCG64`` stream with no buffered 32-bit half spends
    exactly one 64-bit output per double, so it is advanced over the
    rows before ``rows[0]``, draws only rows ``rows[0] .. rows[-1]`` and
    is advanced over the rest; any other stream draws the whole block.
    """
    x = _as_tensor(x)
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    # The mask is drawn in float64 and thresholded before the cast, so the
    # same seed keeps the same units at either compute dtype.
    if rows is None:
        draw = rng.random(x.data.shape)
    else:
        draw = _row_draw(rng, np.asarray(rows, dtype=np.int64), num_rows,
                         x.data.shape[1:])
    keep = (draw >= p).astype(x.data.dtype) / (1.0 - p)
    out_data = x.data * keep

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * keep)

    return x._make_child(out_data, (x,), backward)


def _row_draw(rng: np.random.Generator, rows: np.ndarray, num_rows: int,
              row_shape: tuple) -> np.ndarray:
    """Rows ``rows`` of ``rng.random((num_rows,) + row_shape)``, leaving
    ``rng`` in the state that full draw leaves it in."""
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64 or _holds_half(bitgen):
        return rng.random((num_rows,) + row_shape)[rows]
    width = int(np.prod(row_shape, dtype=np.int64))
    if rows.size == 0:
        bitgen.advance(num_rows * width)
        return np.empty((0,) + row_shape)
    first, last = int(rows.min()), int(rows.max())
    bitgen.advance(first * width)
    draw = rng.random((last + 1 - first,) + row_shape)
    bitgen.advance((num_rows - 1 - last) * width)
    if (np.diff(rows) == 1).all():
        return draw                 # ascending and contiguous: the span
    return draw[rows - first]


def _holds_half(bitgen: np.random.PCG64) -> bool:
    """Whether ``bitgen`` holds a 32-bit half (buffered, or the spent
    one's stale value), which ``advance`` would reset and a draw of
    doubles keeps."""
    state = bitgen.state
    return bool(state["has_uint32"] or state["uinteger"])


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Matrix product (functional alias for the ``@`` operator)."""
    return _as_tensor(a) @ _as_tensor(b)


def square_norm(x: ArrayLike, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Squared L2 norm along ``axis``."""
    x = _as_tensor(x)
    return (x * x).sum(axis=axis, keepdims=keepdims)


def affine(x: ArrayLike, weight: Tensor, bias: Optional[Tensor]) -> Tensor:
    """``x @ weight + bias`` as one autograd node.

    The compositional spelling allocates the matmul output, then a second
    ``(n, d)`` array for the bias add; here the bias is added in place on
    the fresh matmul result.  Backward is the standard affine VJP: the
    bias gradient is the column sum of ``grad`` (what the broadcast add
    node's unbroadcast would compute).
    """
    x = _as_tensor(x)
    if x.data.ndim != 2 or not _plans.fast_kernels_enabled():
        out = x @ weight
        return out + bias if bias is not None else out
    out_data = np.matmul(x.data, weight.data)
    if bias is not None:
        out_data += bias.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.matmul(grad, weight.data.T))
        if weight.requires_grad:
            weight._accumulate(x.data.T @ grad)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return x._make_child(out_data, parents, backward)


def pair_dot(x: ArrayLike, index_a: np.ndarray,
             index_b: np.ndarray) -> Tensor:
    """``out[p] = x[index_a[p]] · x[index_b[p]]`` as one autograd node.

    Fused form of ``rowwise_dot(gather_rows(x, a), gather_rows(x, b))``:
    the compositional spelling creates three graph nodes and four
    ``(P, d)`` temporaries on the backward pass, while the pair lists this
    op serves (decoder logits over sampled edges, the ``f_φ^c`` linearity
    term over ego-network pairs) sit on the training hot path.  No
    ``(P, d)`` gather is kept; the backward scatters ``g_p · x[b_p]`` into
    rows ``a_p`` and ``g_p · x[a_p]`` into ``b_p`` as one product.
    """
    x = _as_tensor(x)
    idx_a = np.asarray(index_a, dtype=np.int64)
    idx_b = np.asarray(index_b, dtype=np.int64)
    if idx_a.shape != idx_b.shape or idx_a.ndim != 1:
        raise ValueError(f"pair_dot expects matching 1-D index arrays, got "
                         f"{idx_a.shape} and {idx_b.shape}")
    out_data = _plans.gathered_dot(x.data, idx_a, x.data, idx_b)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(_plans.pair_scatter(x.data, grad, idx_a, idx_b))

    return x._make_child(out_data, (x,), backward)


def rowwise_dot(a: ArrayLike, b: ArrayLike) -> Tensor:
    """``out[i] = a[i] · b[i]`` for two ``(n, d)`` tensors.

    Fused form of ``(a * b).sum(axis=-1)``: the einsum forward never
    materialises the ``(n, d)`` product in the graph, and the backward is a
    single broadcasted multiply per operand instead of a mul-backward plus
    a sum-backward.  This pattern sits on the training hot path (decoder
    logits over sampled edge pairs, attention scores over egonet pairs).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or a.data.shape != b.data.shape:
        raise ValueError(f"rowwise_dot expects matching (n, d) operands, "
                         f"got {a.data.shape} and {b.data.shape}")
    out_data = np.einsum("ij,ij->i", a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        g = grad[:, None]
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return a._make_child(out_data, (a, b), backward)
