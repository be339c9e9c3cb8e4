"""Grad-mode switching and the inference workspace's structural plans.

The contract under test: ``no_grad()`` turns every op into a graph-free
computation with **bitwise-identical** values (the no-grad branch must
never change arithmetic, only skip tape wiring), and a :class:`Workspace`
records a forward's structural stages once and replays them after.
"""

import numpy as np
import pytest

from repro.tensor import (Tensor, Workspace, concat,
                          enable_grad, gather_rows,
                          gather_scale_segment_sum, grad_enabled,
                          leaky_relu, log_softmax, naive_kernels, no_grad,
                          pair_dot, relu, segment_softmax,
                          set_grad_enabled, use_workspace)
from repro.tensor.workspace import ws_captured


class TestGradMode:
    def test_default_enabled(self):
        assert grad_enabled()

    def test_no_grad_disables_and_restores(self):
        with no_grad():
            assert not grad_enabled()
            with enable_grad():
                assert grad_enabled()
            assert not grad_enabled()
        assert grad_enabled()

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert grad_enabled()

    def test_set_grad_enabled_returns_previous(self):
        previous = set_grad_enabled(False)
        try:
            assert previous is True
            assert not grad_enabled()
        finally:
            set_grad_enabled(previous)
        assert grad_enabled()

    def test_ops_build_no_graph_under_no_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with no_grad():
            out = relu(x * 2.0 - 1.0)
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None

    def test_graph_rebuilt_after_exit(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with no_grad():
            relu(x)
        out = (relu(x) * 3.0).sum()
        out.backward()
        assert x.grad is not None


def _op_chain(dtype):
    """A forward touching every op family the no-grad path specialises."""
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(10, 4)).astype(dtype))
    w = Tensor(rng.normal(size=(4, 4)).astype(dtype), requires_grad=True)
    b = Tensor(rng.normal(size=4).astype(dtype), requires_grad=True)
    ids = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4], dtype=np.int64)
    idx = np.array([1, 3, 5, 7, 9, 0, 2, 4, 6, 8], dtype=np.int64)

    h = leaky_relu(x @ w + b, negative_slope=0.2)
    h = relu(h)
    scores = pair_dot(h, idx, ids)
    alpha = segment_softmax(scores, ids, 5)
    pooled = gather_scale_segment_sum(h, idx, alpha, ids, 5)
    both = concat([pooled, gather_rows(h, np.arange(5, dtype=np.int64))],
                  axis=-1)
    return log_softmax(both, axis=-1).data


class TestNoGradParity:
    """no_grad (with and without a workspace) is arithmetic-identical."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_fast_kernels(self, dtype):
        reference = _op_chain(dtype)
        with no_grad():
            bare = _op_chain(dtype)
            ws = Workspace()
            with use_workspace(ws):
                arena1 = _op_chain(dtype).copy()
            with use_workspace(ws):
                arena2 = _op_chain(dtype).copy()
        assert (bare == reference).all()
        assert (arena1 == reference).all()
        assert (arena2 == reference).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_naive_kernels(self, dtype):
        with naive_kernels():
            reference = _op_chain(dtype)
            with no_grad():
                ws = Workspace()
                with use_workspace(ws):
                    served = _op_chain(dtype).copy()
        assert (served == reference).all()

    def test_relu_matches_on_nan_and_negative_zero(self):
        x = Tensor(np.array([np.nan, -0.0, 0.0, -1.0, 2.0]))
        reference = relu(x).data
        with no_grad(), use_workspace(Workspace()):
            served = relu(x).data.copy()
        assert (np.isnan(served) == np.isnan(reference)).all()
        finite = ~np.isnan(reference)
        assert (served[finite] == reference[finite]).all()
        assert (np.signbit(served[finite])
                == np.signbit(reference[finite])).all()


class TestWorkspace:
    def test_requires_no_grad(self):
        with pytest.raises(RuntimeError, match="no_grad"):
            with use_workspace(Workspace()):
                pass

    def test_nesting_restores_outer(self):
        outer, inner = Workspace(), Workspace()
        with no_grad():
            with use_workspace(outer):
                with use_workspace(inner):
                    ws_captured(lambda: "inner")
                ws_captured(lambda: "outer")
            ws_captured(lambda: "none active")
        assert inner.stats()["captured_structures"] == 1
        assert outer.stats()["captured_structures"] == 1

    def test_stats_shape(self):
        stats = Workspace().stats()
        assert stats == {"allocations": 0, "captured_structures": 0,
                         "structure_hits": 0}


class TestStructureCapture:
    def test_passthrough_without_workspace(self):
        calls = []
        assert ws_captured(lambda: calls.append(1) or "x") == "x"
        assert ws_captured(lambda: calls.append(1) or "y") == "y"
        assert len(calls) == 2

    def test_record_then_replay(self):
        ws = Workspace()
        calls = []

        def forward():
            first = ws_captured(lambda: calls.append("a") or ("A", 1))
            second = ws_captured(lambda: calls.append("b") or ("B", 2))
            return first, second

        with no_grad():
            with use_workspace(ws):
                captured = forward()
            with use_workspace(ws):
                replayed = forward()
        assert calls == ["a", "b"]          # builders ran exactly once
        assert replayed[0] is captured[0]
        assert replayed[1] is captured[1]
        assert ws.structure_hits == 2
        assert ws.stats()["captured_structures"] == 2
        assert ws.allocations == 0

    def test_builder_runs_outside_arena(self):
        """The builder runs with the workspace deactivated: a stage nested
        inside it is recorded with the builder's result, not as a plan
        entry of its own (which would replay out of order)."""
        ws = Workspace()
        calls = []

        def outer():
            inner = ws_captured(lambda: calls.append("inner") or "I")
            return ("O", inner)

        with no_grad():
            with use_workspace(ws):
                first = ws_captured(outer)
            with use_workspace(ws):
                again = ws_captured(outer)
        assert first == again == ("O", "I")
        assert calls == ["inner"]
        assert ws.stats()["captured_structures"] == 1
