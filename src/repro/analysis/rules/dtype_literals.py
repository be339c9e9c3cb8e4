"""RL001 — dtype-literal escapes that bypass the precision policy.

The float32 compute path (``repro/tensor/precision.py``) only works if no
compute-path code hard-casts to a dtype literal: a single
``.astype(np.float64)`` on a hot tensor silently upcasts every downstream
array (NumPy promotion wins) and the float32 run measures float64.  That is
exactly the bug this rule caught in ``pooling/diffpool.py`` /
``pooling/structpool.py`` at introduction time.

Flagged (a *casting position* containing a ``np.float32``/``np.float64``
literal or the equivalent string):

* ``x.astype(np.float64)`` — positional or ``dtype=`` keyword;
* ``dtype=np.float64`` keyword in any call (``np.asarray``, ``np.zeros``,
  ``.sum``, ``np.einsum``, ...);
* ``np.dtype(np.float32)`` and positional dtype arguments of
  ``np.zeros/np.ones/np.empty`` (arg 1) and ``np.full`` (arg 2);
* dtype-less ``np.zeros/np.ones/np.empty/np.full`` — these default to
  float64, which is the same escape spelled silently.

Not flagged: bare ``np.float64`` references outside casting positions
(dtype *checks* like ``x.dtype in (np.float32, np.float64)`` and named
constants such as ``DEFAULT_DTYPE = np.float64`` are the sanctioned ways
to talk about dtypes), and anything spelled through the policy vocabulary
(``resolve_dtype``, ``get_default_dtype``, ``ACCUM_DTYPE``, an input's
``.dtype``).

The allowlist for deliberate float64 accumulation boundaries — Adam's
second moments, softmax/KL/BCE reduction sums, int index arrays — is the
``# replint: allow RL001 -- <reason>`` pragma (int arrays pass a non-float
dtype and are never flagged).  Whole subtrees that are *data* rather than
compute are excluded below with their reasons.
"""

from __future__ import annotations

import ast
from typing import Iterable, Tuple

from .base import Finding, Rule, SourceFile, is_np_attr

#: Path fragments excluded from this rule, with the reason on record.
#: Matching is substring-on-posix-relpath so the rule behaves the same
#: whether a file or its parent directory is linted.
EXCLUDED_PATHS: Tuple[Tuple[str, str], ...] = (
    ("repro/tensor/precision.py",
     "defines the policy; its float64 constants are the policy"),
    ("repro/tensor/gradcheck.py",
     "finite differences are float64 by definition (reference precision)"),
    ("repro/datasets/",
     "synthetic generators emit reference-precision data; "
     "DatasetStructures casts once at load"),
    ("repro/training/metrics.py",
     "scalar evaluation metrics (accuracy/AUC) summarise in float64 and "
     "never feed back into compute"),
)

_FLOAT_NAMES = ("float32", "float64")
_ALLOC_DTYPE_ARG = {"zeros": 1, "ones": 1, "empty": 1, "full": 2}


def _is_float_literal(node: ast.AST) -> bool:
    if is_np_attr(node, _FLOAT_NAMES):
        return True
    return isinstance(node, ast.Constant) and node.value in _FLOAT_NAMES


class DtypeLiteralRule(Rule):
    id = "RL001"
    title = "dtype-literal escape bypassing the precision policy"

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        if any(fragment in src.rel for fragment, _ in EXCLUDED_PATHS):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_call(src, node)

    def _check_call(self, src: SourceFile,
                    node: ast.Call) -> Iterable[Finding]:
        func = node.func
        # x.astype(np.float64) / x.astype("float64")
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            if node.args and _is_float_literal(node.args[0]):
                yield self.finding(
                    src, node.args[0],
                    "hard cast to a float dtype literal — use the operand's "
                    ".dtype / resolve_dtype(...) (or ACCUM_DTYPE and a "
                    "pragma for a deliberate accumulation boundary)")
        # np.dtype(np.float32)
        if is_np_attr(func, ("dtype",)):
            if node.args and _is_float_literal(node.args[0]):
                yield self.finding(
                    src, node.args[0],
                    "np.dtype(<float literal>) — use resolve_dtype(...) or "
                    "get_default_dtype()")
        # dtype=np.float64 keyword anywhere
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_float_literal(kw.value):
                yield self.finding(
                    src, kw.value,
                    "dtype=<float literal> keyword — derive the dtype from "
                    "an input or the precision policy (ACCUM_DTYPE for "
                    "deliberate float64 accumulation)")
        # np.zeros/ones/empty/full: positional dtype literal, or no dtype
        # at all (which is float64 by NumPy default — the silent spelling).
        if is_np_attr(func, tuple(_ALLOC_DTYPE_ARG)):
            idx = _ALLOC_DTYPE_ARG[func.attr]
            if len(node.args) > idx and _is_float_literal(node.args[idx]):
                yield self.finding(
                    src, node.args[idx],
                    "allocation with a float dtype literal — pass the "
                    "consumer's dtype or resolve_dtype(...)")
            elif (len(node.args) <= idx
                  and not any(kw.arg == "dtype" for kw in node.keywords)):
                yield self.finding(
                    src, node,
                    f"dtype-less np.{func.attr} defaults to float64 — pass "
                    "an explicit dtype derived from an input or the policy")
