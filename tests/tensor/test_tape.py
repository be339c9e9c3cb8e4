"""Training tape tests.

The replay contract at the unit level: capture records the autograd graph
and firing order, replay reuses the recorded node objects and reproduces
gradients bitwise, shape drift is tolerated while dtype drift and
op-sequence drift raise :class:`TapeInvalid`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, default_dtype, relu
from repro.tensor.tape import TapeInvalid, TrainingTape


def small_step(w, x):
    """A representative little graph: affine-ish chain with a reduction."""
    h = x @ w
    h = relu(h)
    return (h * h).sum()


def grads_for(w_data, x_data, tape=None):
    w = Tensor(w_data.copy(), requires_grad=True)
    x = Tensor(x_data.copy(), requires_grad=True)
    if tape is None:
        loss = small_step(w, x)
        loss.backward()
    else:
        with tape.active_pass():
            loss = small_step(w, x)
            tape.backward(loss)
    return loss.data.copy(), w.grad.copy(), x.grad.copy()


class TestTrainingTape:
    def test_capture_then_replay_is_bitwise(self):
        rng = np.random.default_rng(0)
        w_data = rng.normal(size=(4, 3))
        x_data = rng.normal(size=(5, 4))
        ref_loss, ref_gw, ref_gx = grads_for(w_data, x_data)

        tape = TrainingTape()
        grads_for(w_data, x_data, tape)           # capture pass
        assert tape.captured
        assert tape.captures == 1 and tape.replays == 0
        nodes_before = list(tape.nodes)
        loss, gw, gx = grads_for(w_data, x_data)  # uncaptured control
        loss2, gw2, gx2 = grads_for(w_data, x_data, tape)  # replay
        assert tape.replays == 1
        assert tape.nodes == nodes_before          # same node objects reused
        assert loss2 == ref_loss == loss
        np.testing.assert_array_equal(gw2, ref_gw)
        np.testing.assert_array_equal(gx2, ref_gx)

    def test_replay_tracks_moving_values(self):
        rng = np.random.default_rng(1)
        w_data = rng.normal(size=(4, 3))
        tape = TrainingTape()
        for step in range(3):
            x_data = rng.normal(size=(5, 4))
            ref = grads_for(w_data, x_data)
            got = grads_for(w_data, x_data, tape)
            for a, b in zip(ref, got):
                np.testing.assert_array_equal(a, b)

    def test_shape_drift_is_tolerated(self):
        # Adaptive pooling changes row counts between steps; the tape
        # must replay across the drift (dtype + sequence still checked).
        rng = np.random.default_rng(2)
        w_data = rng.normal(size=(4, 3))
        tape = TrainingTape()
        grads_for(w_data, rng.normal(size=(5, 4)), tape)
        ref = grads_for(w_data, x_bigger := rng.normal(size=(7, 4)))
        got = grads_for(w_data, x_bigger, tape)
        assert tape.replays == 1
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)

    def test_dtype_drift_raises(self):
        rng = np.random.default_rng(3)
        w_data = rng.normal(size=(4, 3))
        x_data = rng.normal(size=(5, 4))
        tape = TrainingTape()
        grads_for(w_data, x_data, tape)
        with default_dtype(np.float32), pytest.raises(TapeInvalid):
            grads_for(w_data.astype(np.float32),
                      x_data.astype(np.float32), tape)

    def test_sequence_running_long_raises(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        tape = TrainingTape()
        with tape.active_pass():
            loss = small_step(w, x)
            tape.backward(loss)
        with pytest.raises(TapeInvalid), tape.active_pass():
            extra = small_step(w, x) + small_step(w, x)

    def test_sequence_running_short_raises_at_backward(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        tape = TrainingTape()
        with tape.active_pass():
            loss = small_step(w, x)
            tape.backward(loss)
        with pytest.raises(TapeInvalid), tape.active_pass():
            partial = (x @ w).sum()   # fewer ops than captured
            tape.backward(partial)

    def test_tapes_do_not_nest(self):
        tape_a, tape_b = TrainingTape(), TrainingTape()
        with tape_a.active_pass():
            with pytest.raises(RuntimeError, match="nest"):
                with tape_b.active_pass():
                    pass

    def test_stats_shape(self):
        tape = TrainingTape()
        stats = tape.stats()
        assert {"nodes", "fired", "captures", "replays"} <= set(stats)
