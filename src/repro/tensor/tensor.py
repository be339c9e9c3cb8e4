"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the computational substrate of the whole library.  The paper's
reference implementation uses PyTorch; nothing in the paper depends on GPU
kernels, so we reproduce the required functionality as a small, well-tested
autograd engine over ``numpy.ndarray``.

Design
------
A :class:`Tensor` wraps a NumPy array (``data``) plus an optional gradient
buffer (``grad``).  Differentiable operations build a DAG: each result tensor
remembers its parent tensors and a ``_backward`` closure that accumulates
gradients into those parents.  :meth:`Tensor.backward` topologically sorts the
DAG and runs the closures in reverse order.

Only the operations the models in this repository need are implemented, but
each is implemented with full broadcasting support and is validated against
finite differences in ``tests/tensor/test_gradcheck.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _grad_mode as _grad
from . import _segment_plans as _plans
from . import precision as _precision
from .tape import _state as _tape_state

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]

#: Reference floating point dtype.  float64 keeps finite-difference gradient
#: checks tight and is the out-of-the-box compute policy; training runs
#: select float32 through :func:`repro.tensor.set_default_dtype` (or
#: ``TrainConfig(dtype=...)``).  Kept as a module constant because it names
#: the *reference* precision — the accumulation dtype for sensitive
#: reductions and the dtype of the pre-policy bit-compatibility path.
DEFAULT_DTYPE = np.float64


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    NumPy broadcasting can expand an operand along new leading axes and along
    axes of size one.  The vector-Jacobian product of broadcasting is a sum
    over the broadcast axes, which is what this helper performs.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to ``numpy.ndarray``.  Floating point data is
        coerced to the compute dtype policy
        (:func:`repro.tensor.get_default_dtype`, float64 unless configured)
        unless an explicit ``dtype`` is given; integer and boolean data
        passes through untouched.
    requires_grad:
        When ``True`` the tensor participates in the autograd graph and will
        receive a ``.grad`` buffer on :meth:`backward`.
    dtype:
        Explicit dtype override.  Bypasses the policy: the data is cast to
        exactly this dtype (floats only — use it to pin a tensor's
        precision regardless of the ambient policy).
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_grad_owned")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, *,
                 dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind in "iub":
            if requires_grad:
                raise TypeError("integer tensors cannot require gradients")
            if dtype is not None:
                arr = arr.astype(_precision.resolve_dtype(dtype))
        else:
            target = (_precision.get_default_dtype() if dtype is None
                      else _precision.resolve_dtype(dtype))
            if arr.dtype != target:
                arr = arr.astype(target)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._grad_owned: bool = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_data(cls, data: np.ndarray,
                   requires_grad: bool = False) -> "Tensor":
        """Wrap an ndarray verbatim — no coercion, no policy, no copy.

        Internal constructor for op results and detach/copy, where the
        array's dtype is already the intended one (outputs inherit their
        inputs' dtype; applying the policy here would silently re-cast
        float32 graphs under a float64 policy).
        """
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = requires_grad
        out._backward = None
        out._parents = ()
        out._grad_owned = False
        return out

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False,
              dtype=None) -> "Tensor":
        return Tensor._from_data(np.zeros(shape, dtype=Tensor._resolve(dtype)),
                                 requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False,
             dtype=None) -> "Tensor":
        return Tensor._from_data(np.ones(shape, dtype=Tensor._resolve(dtype)),
                                 requires_grad)

    @staticmethod
    def eye(n: int, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor._from_data(np.eye(n, dtype=Tensor._resolve(dtype)),
                                 requires_grad)

    @staticmethod
    def _resolve(dtype) -> np.dtype:
        return (_precision.get_default_dtype() if dtype is None
                else _precision.resolve_dtype(dtype))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_tag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy, no graph)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor._from_data(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a leaf tensor with copied data."""
        return Tensor._from_data(self.data.copy(),
                                 requires_grad=self.requires_grad)

    def astype(self, dtype) -> "Tensor":
        """Return a leaf tensor cast to ``dtype`` (no autograd history).

        A no-copy pass-through when the dtype already matches and the
        tensor is a leaf, so repeated casts are free.
        """
        target = _precision.resolve_dtype(dtype)
        if self.data.dtype == target and self._backward is None:
            return self
        return Tensor._from_data(self.data.astype(target, copy=False),
                                 requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # Autograd plumbing
    # ------------------------------------------------------------------
    def _make_child(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor wired into the autograd graph.

        ``data`` is adopted verbatim — op outputs inherit their inputs'
        dtype (dtype stability), they are not re-coerced to the policy.
        Under :func:`~repro.tensor.no_grad` the wiring is skipped entirely:
        the result is a graph-free leaf and ``parents``/``backward`` are
        dropped (this is the single choke point every op flows through, so
        one check here covers plain ops and fused kernels alike).

        The training-tape hook also lives here: with a
        :class:`~repro.tensor.tape.TrainingTape` active on this thread,
        grad-wired results are recorded in creation order (capture) or
        served from the recording with their data rebound (replay) — see
        the tape module for the replay contract.
        """
        if _grad.grad_enabled() and any(p.requires_grad for p in parents):
            tape = _tape_state.active
            if tape is not None and tape.mode == 2:  # TrainingTape.REPLAY
                return tape._replay_node(data, backward)
            out = Tensor._from_data(np.asarray(data))
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
            if tape is not None:
                tape.nodes.append(out)
            return out
        return Tensor._from_data(np.asarray(data))

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        Copy-on-write: the first contribution is adopted by reference (the
        arrays handed in by backward closures are freshly computed, so
        copying them only to add later contributions is wasted work for the
        common single-contribution case).  A second contribution allocates
        an owned buffer; from then on accumulation is in place.  Nothing in
        this library mutates ``.grad`` in place from the outside — see
        ``optim/clip.py``, which is deliberately out-of-place.
        """
        grad = _unbroadcast(np.asarray(grad), self.data.shape)
        if grad.dtype != self.data.dtype:
            # Gradients adopt the tensor's own dtype; this is where a
            # float64-accumulated reduction hands its result back to a
            # float32 graph (and a no-op on the pure-float64 path).
            grad = grad.astype(self.data.dtype)
        if self.grad is None:
            self.grad = grad
            self._grad_owned = False
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1 for scalar tensors (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient "
                                   "requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad)
        if grad.dtype != self.data.dtype:
            grad = grad.astype(self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        order = self._topological_order()
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free interior state eagerly: interior grads are only needed
                # to propagate, and the closure is one-shot per backward call.
                node._backward = None
                node._parents = ()

    def _topological_order(self) -> List["Tensor"]:
        """Return tensors reachable from ``self`` in topological order."""
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None
        self._grad_owned = False

    # ------------------------------------------------------------------
    # Arithmetic (broadcasting, both tensor and scalar operands)
    # ------------------------------------------------------------------
    def _coerce(self, value: ArrayLike) -> "Tensor":
        """Wrap a non-Tensor operand, adopting this tensor's float dtype.

        Scalars and raw arrays entering a mixed expression take the Tensor
        operand's compute dtype — otherwise a stray Python float would
        promote an entire float32 graph to float64 via NumPy's type rules.
        """
        if isinstance(value, Tensor):
            return value
        if self.data.dtype.kind == "f":
            return Tensor(value, dtype=self.data.dtype)
        return Tensor(value)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make_child(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(-grad)

        return self._make_child(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make_child(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return self._make_child(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make_child(-self.data, (self,), backward)

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_child(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data)
                                     if self.data.ndim == 2 else grad * other.data)
                else:
                    g = grad[..., None, :] if grad.ndim == self.data.ndim - 1 else grad
                    self._accumulate(g @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad)
                                      if other.data.ndim == 2 else grad * self.data)
                else:
                    g = grad[..., :, None] if grad.ndim == other.data.ndim - 1 else grad
                    other._accumulate(np.swapaxes(self.data, -1, -2) @ g)

        return self._make_child(out_data, (self, other), backward)

    # Comparison operators return plain boolean arrays (non-differentiable).
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > self._coerce(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < self._coerce(other).data

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= self._coerce(other).data

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= self._coerce(other).data

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return self._make_child(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple: Optional[Tuple[int, ...]] = tuple(axes) if axes else None
        out_data = self.data.transpose(axes_tuple) if axes_tuple else self.data.T

        def backward(grad: np.ndarray) -> None:
            if axes_tuple is None:
                self._accumulate(grad.T)
            else:
                inverse = np.argsort(axes_tuple)
                self._accumulate(grad.transpose(inverse))

        return self._make_child(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if (isinstance(index, np.ndarray) and index.ndim == 1
                    and index.dtype.kind in "iu"):
                self._accumulate(_plans.scatter_add_rows(
                    grad, index, self.data.shape[0]))
            else:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make_child(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make_child(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else (
            np.prod([self.data.shape[a] for a in
                     ((axis,) if isinstance(axis, int) else axis)]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient evenly among ties, matching subgradient choice.
            mask /= mask.sum(axis=axis, keepdims=True)
            g = grad if keepdims or axis is None else np.expand_dims(grad, axis)
            self._accumulate(mask * g)

        return self._make_child(out_data, (self,), backward)

    def min(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))
