"""Precision policy for the tensor/autograd stack.

Everything in this library used to compute in hardwired ``np.float64``.
The AdamGNN training objectives tolerate far less precision than that, and
on a memory-bandwidth-bound NumPy substrate halving the element width is a
direct throughput win, so the compute dtype is now a *policy*:

* :func:`get_default_dtype` / :func:`set_default_dtype` read and set the
  compute dtype (``float64`` out of the box, so library users and the
  finite-difference gradient checks see unchanged behaviour).  The policy
  is thread-local — each serving worker scopes its own precision — with
  fresh threads starting at the library default;
* :func:`default_dtype` scopes a dtype change to a ``with`` block — this is
  what the trainers use to run a whole fit at ``TrainConfig(dtype=...)``;
* :data:`ACCUM_DTYPE` names the accumulation dtype (always ``float64``)
  used by the numerically sensitive scalar reductions — the KL loss, the
  pair-sampled BCE, softmax normalisation sums, Adam's second moments —
  which accumulate in float64 regardless of the compute dtype and cast
  back at the boundary.

The policy governs *coercion points*: what ``Tensor(...)`` makes of
python scalars/lists/int arrays, what the weight initialisers and
structural helpers (``np.ones`` edge weights, one-hot features) emit.
Arrays that are already float32/float64 flow through ops unchanged —
gradients and op outputs inherit their inputs' dtype rather than minting
the default (see ``tensor.py``/``ops.py``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Union

import numpy as np

DTypeLike = Union[str, type, np.dtype]

#: Accumulation dtype for numerically sensitive reductions.  Never changes:
#: reduced-precision *storage* is a bandwidth decision, reduced-precision
#: *accumulation* is a correctness decision, and the losses this library
#: reproduces (Eqs. 5-7) sum thousands of small terms.
ACCUM_DTYPE = np.float64

#: The dtypes the compute policy may take.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

class _DtypeState(threading.local):
    """Per-thread compute dtype.  Thread-local for the same reason as the
    grad-mode switch (see ``_grad_mode.py``): serving workers scope their
    own precision per forward, and a worker's ``default_dtype`` block must
    not bleed into a concurrent training loop.  Fresh threads start at the
    library default (the class attribute), not at whatever the spawning
    thread happened to scope."""

    value: np.dtype = np.dtype(np.float64)


_state = _DtypeState()


def resolve_dtype(dtype: DTypeLike) -> np.dtype:
    """Normalise a user-facing dtype spec to a supported ``np.dtype``.

    Accepts ``"float32"``/``"float64"``, ``np.float32``/``np.float64`` and
    dtype objects; anything else raises ``ValueError``.
    """
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; choose one of "
            f"{[d.name for d in SUPPORTED_DTYPES]}")
    return resolved


def get_default_dtype() -> np.dtype:
    """The current compute dtype (``float64`` unless configured)."""
    return _state.value


def set_default_dtype(dtype: DTypeLike) -> np.dtype:
    """Set the calling thread's compute dtype; returns the previous one."""
    previous = _state.value
    _state.value = resolve_dtype(dtype)
    return previous


@contextmanager
def default_dtype(dtype: DTypeLike) -> Iterator[np.dtype]:
    """Scope the compute dtype to a ``with`` block (restores on exit)."""
    previous = set_default_dtype(dtype)
    try:
        yield _state.value
    finally:
        set_default_dtype(previous)
