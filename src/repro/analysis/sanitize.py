"""Opt-in runtime sanitizers for the autograd/kernel stack.

Two dynamic checks complement the static linter (``repro.analysis.lint``):

* **NaN/Inf detector** — every op result is checked at the
  ``Tensor._make_child`` choke point; a non-finite output raises
  :class:`SanitizerError` naming the op (recovered from the backward
  closure's qualname), the operand shapes/dtypes and the output dtype,
  instead of letting the NaN surface fifty ops later as a mysteriously
  flat loss.  The same hook asserts the dtype contract: float results must
  be policy-supported and operands must not silently mix float32/float64.
* **Segment dtype contracts** — the public segment kernels validate their
  inputs via :func:`repro.tensor._sanitize_state.check_segment_inputs`.

Enabling: the :func:`sanitize` context manager, the
:func:`enable_sanitizer`/:func:`disable_sanitizer` pair, or the
``REPRO_SANITIZE=1`` environment variable (honoured at ``import repro``
time — this is what the sanitized CI job sets).

Zero-cost-off guarantee: enabling *swaps in* a wrapper for
``Tensor._make_child`` and disabling restores the original function
object — when off, the hot path runs the exact same code objects as a
build without this module, which :func:`assert_unpatched` verifies and
the sanitizer A/B benchmark section records.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np

from ..tensor import _sanitize_state as _state
from ..tensor.precision import SUPPORTED_DTYPES
from ..tensor.tensor import Tensor

SanitizerError = _state.SanitizerError

__all__ = ["SanitizerError", "sanitize", "enable_sanitizer",
           "disable_sanitizer", "sanitizer_enabled", "sanitizer_paused",
           "assert_unpatched", "env_requested"]

_ORIG_MAKE_CHILD = Tensor._make_child

_depth = 0


def _op_name(backward) -> str:
    """Recover the op name from its backward closure's qualname.

    Every op defines its VJP as a local ``backward`` function, so the
    qualname reads ``affine.<locals>.backward`` (free functions) or
    ``Tensor.__add__.<locals>.backward`` (methods); the prefix before
    ``.<locals>`` names the op.
    """
    qualname = getattr(backward, "__qualname__", "")
    if ".<locals>." in qualname:
        return qualname.split(".<locals>.")[0]
    return qualname or "<unknown op>"


def _operand_report(parents: Tuple[Tensor, ...]) -> str:
    if not parents:
        return "no tensor operands"
    return ", ".join(
        f"operand[{i}]: shape={tuple(p.data.shape)} dtype={p.data.dtype}"
        for i, p in enumerate(parents))


def _sanitized_make_child(self, data, parents, backward):
    out = _ORIG_MAKE_CHILD(self, data, parents, backward)
    arr = out.data
    if arr.dtype.kind != "f":
        return out
    op = None
    if arr.dtype not in SUPPORTED_DTYPES:
        op = op or _op_name(backward)
        raise SanitizerError(
            f"dtype contract violated in '{op}': output dtype {arr.dtype} "
            f"is outside the precision policy (float32/float64); "
            f"{_operand_report(parents)}")
    float_dtypes = {p.data.dtype for p in parents
                    if p.data.dtype.kind == "f"}
    if len(float_dtypes) > 1:
        op = op or _op_name(backward)
        raise SanitizerError(
            f"mixed-precision operands in '{op}': "
            f"{sorted(d.name for d in float_dtypes)} promote silently to "
            f"{arr.dtype} — cast at the boundary instead; "
            f"{_operand_report(parents)}")
    if not np.all(np.isfinite(arr)):
        op = op or _op_name(backward)
        bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
        raise SanitizerError(
            f"non-finite values in the output of '{op}': {bad} of "
            f"{arr.size} elements (output shape={tuple(arr.shape)} "
            f"dtype={arr.dtype}); {_operand_report(parents)}")
    return out


def enable_sanitizer() -> None:
    """Activate all runtime sanitizers (re-entrant; pairs with
    :func:`disable_sanitizer`)."""
    global _depth
    _depth += 1
    if _depth == 1:
        Tensor._make_child = _sanitized_make_child
        _state.ENABLED = True


def disable_sanitizer() -> None:
    """Deactivate the sanitizers once the outermost enable unwinds."""
    global _depth
    if _depth == 0:
        return
    _depth -= 1
    if _depth == 0:
        Tensor._make_child = _ORIG_MAKE_CHILD
        _state.ENABLED = False


def sanitizer_enabled() -> bool:
    """True while any :func:`enable_sanitizer` is outstanding."""
    return _depth > 0


@contextmanager
def sanitize() -> Iterator[None]:
    """Scope the runtime sanitizers to a ``with`` block."""
    enable_sanitizer()
    try:
        yield
    finally:
        disable_sanitizer()


@contextmanager
def sanitizer_paused() -> Iterator[None]:
    """Temporarily restore the unpatched hot path (for A/B benchmarks
    that need a true off-arm even under ``REPRO_SANITIZE=1``)."""
    was_patched = _depth > 0
    if was_patched:
        Tensor._make_child = _ORIG_MAKE_CHILD
        _state.ENABLED = False
    try:
        yield
    finally:
        if was_patched:
            Tensor._make_child = _sanitized_make_child
            _state.ENABLED = True


def assert_unpatched() -> None:
    """Raise unless the hot path is byte-for-byte the unsanitized one.

    This is the zero-cost-when-disabled guarantee: after every
    ``sanitize()`` block unwinds, ``Tensor._make_child`` *is* the original
    function object — not a wrapper with a flag check — so the disabled
    state cannot be slower than a tree without the sanitizer at all.
    """
    if Tensor._make_child is not _ORIG_MAKE_CHILD:
        raise AssertionError(
            "Tensor._make_child is still patched — sanitizer off-state "
            "would pay wrapper overhead")
    if _state.ENABLED:
        raise AssertionError("_sanitize_state.ENABLED left set")


def env_requested(environ=os.environ) -> bool:
    """True when ``REPRO_SANITIZE`` asks for sanitizers at import time."""
    return environ.get("REPRO_SANITIZE", "").strip() not in ("", "0")
