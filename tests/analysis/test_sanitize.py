"""Runtime sanitizer tests: NaN detection with op attribution, the
zero-cost-off patching contract, segment dtype contracts, and the
env-var activation path.

These tests must pass both plain and under ``REPRO_SANITIZE=1`` (the
sanitized CI tier runs the whole suite that way), so every assertion about
the *unpatched* state is guarded by ``sanitizer_enabled()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (SanitizerError, assert_unpatched,
                            disable_sanitizer, enable_sanitizer,
                            env_requested, sanitize, sanitizer_enabled,
                            sanitizer_paused)
from repro.tensor import Tensor, affine, exp, relu, segment_sum


# ---------------------------------------------------------------------------
# NaN/Inf detection and op attribution
# ---------------------------------------------------------------------------
def test_nan_injected_mid_forward_names_the_op():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    w = Tensor(np.ones((4, 2)), requires_grad=True)
    w.data[1, 1] = np.nan  # inject mid-forward, before the affine kernel
    with sanitize():
        with pytest.raises(SanitizerError) as excinfo:
            affine(x, w, None)
    message = str(excinfo.value)
    assert "affine" in message
    assert "non-finite" in message
    assert "shape=(3, 4)" in message  # operand provenance
    assert "float64" in message


def test_inf_detected_and_counted():
    x = Tensor(np.array([1.0, np.inf, 2.0, np.inf]))
    with sanitize():
        with pytest.raises(SanitizerError, match="2 of 4"):
            relu(x)


def test_method_ops_report_their_qualname():
    a = Tensor(np.array([1.0, np.nan]))
    b = Tensor(np.array([1.0, 1.0]))
    with sanitize():
        with pytest.raises(SanitizerError, match="__add__"):
            a + b


def test_clean_forward_passes_untouched():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    w = Tensor(np.ones((4, 2)), requires_grad=True)
    with sanitize():
        out = affine(x, w, None)
        out.sum().backward()
    assert np.isfinite(x.grad).all()


def test_no_raise_when_sanitizer_off():
    if sanitizer_enabled():
        pytest.skip("REPRO_SANITIZE armed for the whole process")
    out = exp(Tensor(np.array([np.nan, 1.0])))
    assert np.isnan(out.data[0])


def test_mixed_precision_operands_detected():
    a = Tensor(np.ones(3, dtype=np.float32), dtype=np.float32)
    b = Tensor(np.ones(3))  # float64 under the default policy
    with sanitize():
        with pytest.raises(SanitizerError, match="mixed-precision"):
            a + b


# ---------------------------------------------------------------------------
# Zero-cost-off patching contract
# ---------------------------------------------------------------------------
def test_patch_cycle_restores_original_function_objects():
    if sanitizer_enabled():
        pytest.skip("REPRO_SANITIZE armed for the whole process")
    before_child = Tensor._make_child
    with sanitize():
        assert Tensor._make_child is not before_child
        assert sanitizer_enabled()
    assert Tensor._make_child is before_child
    assert not sanitizer_enabled()
    assert_unpatched()


def test_enable_is_reentrant():
    depth_before = sanitizer_enabled()
    enable_sanitizer()
    enable_sanitizer()
    assert sanitizer_enabled()
    disable_sanitizer()
    assert sanitizer_enabled()  # one enable still outstanding
    disable_sanitizer()
    assert sanitizer_enabled() == depth_before


def test_sanitizer_paused_restores_hot_path():
    with sanitize():
        with sanitizer_paused():
            assert_unpatched()
            # NaN flows through silently while paused.
            out = exp(Tensor(np.array([np.nan])))
            assert np.isnan(out.data[0])
        with pytest.raises(SanitizerError):
            exp(Tensor(np.array([np.nan])))


# ---------------------------------------------------------------------------
# Segment-kernel dtype contracts
# ---------------------------------------------------------------------------
def test_segment_values_dtype_contract():
    t = Tensor(np.ones((4, 2)))
    t.data = t.data.astype(np.float16)  # bypass the Tensor coercion point
    ids = np.array([0, 0, 1, 1], dtype=np.int64)
    with sanitize():
        with pytest.raises(SanitizerError, match="float16"):
            segment_sum(t, ids, 2)


def test_segment_contract_silent_when_off():
    if sanitizer_enabled():
        pytest.skip("REPRO_SANITIZE armed for the whole process")
    t = Tensor(np.ones((4, 2)))
    t.data = t.data.astype(np.float16)
    ids = np.array([0, 0, 1, 1], dtype=np.int64)
    out = segment_sum(t, ids, 2)
    assert out.data.shape == (2, 2)


# ---------------------------------------------------------------------------
# Environment activation
# ---------------------------------------------------------------------------
def test_env_requested_parsing():
    assert env_requested({"REPRO_SANITIZE": "1"})
    assert env_requested({"REPRO_SANITIZE": "true"})
    assert not env_requested({"REPRO_SANITIZE": "0"})
    assert not env_requested({"REPRO_SANITIZE": ""})
    assert not env_requested({})


def test_sanitize_exported_from_repro():
    import repro
    assert repro.sanitize is sanitize
    assert repro.SanitizerError is SanitizerError
