"""Shared state for the opt-in runtime sanitizers.

This module lives inside ``repro.tensor`` (not ``repro.analysis``) so the
hot kernel modules can consult the flag without importing the analysis
package — ``repro.analysis.sanitize`` imports the tensor stack, and the
reverse import would be circular.  It deliberately contains *only* the
enabled flag, the error type and the cheap input checks the kernels call:
the patching machinery (which functions get wrapped and how) stays in
:mod:`repro.analysis.sanitize`.

Cost discipline: when sanitizers are off, the only cost the kernels pay is
``if _san.ENABLED`` — one module-attribute load and branch per *kernel
call* (not per element, and not on the ``Tensor._make_child`` choke point,
which is patched-in/patched-out instead and therefore exactly free when
off).
"""

from __future__ import annotations

import numpy as np

from .precision import SUPPORTED_DTYPES

#: Toggled by repro.analysis.sanitize.enable_sanitizer()/disable_sanitizer().
ENABLED: bool = False


class SanitizerError(RuntimeError):
    """An invariant violation caught by a runtime sanitizer.

    Raised at the violation site with a report naming the op, operand
    shapes and dtype provenance — the debugging context a silent NaN
    normally destroys.
    """


def check_segment_inputs(op: str, values: np.ndarray,
                         segment_ids: np.ndarray) -> None:
    """Dtype-contract assertions for segment-kernel inputs.

    The segment plans counting-sort int64 ids (CSR row pointers) and the
    reductions assume policy-supported float values with int64 ids; a
    float16/longdouble array sneaking in would silently take the slow
    ufunc paths (or upcast downstream).  Called by the public segment
    kernels only when sanitizers are enabled.
    """
    if values.dtype.kind == "f" and values.dtype not in SUPPORTED_DTYPES:
        raise SanitizerError(
            f"{op}: values dtype {values.dtype} violates the precision "
            f"policy (supported: float32/float64) — route the input "
            f"through resolve_dtype()")
    if segment_ids.dtype != np.int64:
        raise SanitizerError(
            f"{op}: segment_ids dtype {segment_ids.dtype} — the segment "
            f"plans sort int64 id arrays")
