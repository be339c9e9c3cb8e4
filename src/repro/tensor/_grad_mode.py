"""Gradient-mode switch: ``no_grad()`` disables tape construction.

Training builds a reverse-mode DAG for every op: parent tuples, a
``_backward`` closure, and (for some ops) backward-only precomputation such
as ``log_softmax``'s cached softmax.  Inference needs none of it.  Rather
than threading a flag through every op, the switch lives here and is
consulted at the single point where all ops wire their results into the
graph — :meth:`Tensor._make_child` — so one check covers plain ops and
fused kernels alike.

The flag is **thread-local**: the serving front end
(:mod:`repro.serving`) runs warmed :class:`~repro.inference.Predictor`
workers on their own threads, each entering ``no_grad()`` around its own
forward, and one worker's mode must never leak into another thread (or
into a training loop on the main thread).  Each thread starts in the
default grad-on state.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class _GradState(threading.local):
    """Per-thread grad mode; the class attribute is the fresh-thread
    default (reads fall back to it until the thread first writes)."""

    enabled: bool = True


_STATE = _GradState()


def grad_enabled() -> bool:
    """Return ``True`` when ops should record the autograd tape."""
    return _STATE.enabled


def set_grad_enabled(mode: bool) -> bool:
    """Set the calling thread's grad mode; returns the previous mode."""
    previous = _STATE.enabled
    _STATE.enabled = bool(mode)
    return previous


@contextmanager
def no_grad() -> Iterator[None]:
    """Context manager: ops inside produce graph-free leaf tensors.

    Results are bitwise identical to the training-mode forward — the same
    kernels run on the same values; only the bookkeeping (parent tracking,
    ``_backward`` closures, backward-only caches) is skipped.  Calling
    ``backward()`` on a tensor created inside raises, as it has no graph.
    Re-entrant and exception-safe.
    """
    previous = set_grad_enabled(False)
    try:
        yield
    finally:
        set_grad_enabled(previous)


@contextmanager
def enable_grad() -> Iterator[None]:
    """Re-enable tape construction inside an enclosing :func:`no_grad`."""
    previous = set_grad_enabled(True)
    try:
        yield
    finally:
        set_grad_enabled(previous)
