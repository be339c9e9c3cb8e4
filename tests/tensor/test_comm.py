"""Comm-segment unit tests: lane arithmetic, backends, reduce window.

The determinism contract of data-parallel training rests on three local
properties checked here: lane writes form ``weight · grad`` exactly in
float64, the reduction consumes lanes in fixed shard order (so the float
sum never depends on worker packing), and the process-local and
shared-memory backends run the identical write/reduce code over the
identical layout.
"""

import numpy as np
import pytest

from repro.tensor import ACCUM_DTYPE
from repro.tensor._comm import (CommUnavailable, LocalFlatComm,
                                SharedFlatComm, clear_lane,
                                in_reduce_window, probe_shared_memory,
                                reduce_lanes, reduce_window, write_lane,
                                write_segment)


def _grads(rng, sizes, dtype):
    return [rng.standard_normal(n).astype(dtype) for n in sizes]


# ---------------------------------------------------------------------------
# Lane arithmetic
# ---------------------------------------------------------------------------
def test_write_lane_forms_weighted_grad_in_float64():
    rng = np.random.default_rng(0)
    sizes = [4, 6, 2]
    grads = _grads(rng, sizes, np.float32)
    lane = np.empty(sum(sizes) + 1, dtype=ACCUM_DTYPE)
    write_lane(lane, grads, sizes, 3.0)
    expected = np.concatenate([g.astype(ACCUM_DTYPE) * 3.0 for g in grads])
    assert np.array_equal(lane[:-1], expected)
    assert lane[-1] == 3.0


def test_write_lane_none_grad_zeroes_its_span_only():
    rng = np.random.default_rng(1)
    sizes = [3, 5, 2]
    grads = _grads(rng, sizes, np.float64)
    lane = np.full(sum(sizes) + 1, np.nan, dtype=ACCUM_DTYPE)
    write_lane(lane, [grads[0], None, grads[2]], sizes, 2.0)
    assert np.array_equal(lane[0:3], grads[0] * 2.0)
    assert np.array_equal(lane[3:8], np.zeros(5))
    assert np.array_equal(lane[8:10], grads[2] * 2.0)
    assert lane[-1] == 2.0


def test_clear_lane_zeroes_grad_and_weight():
    lane = np.full(7, 5.0, dtype=ACCUM_DTYPE)
    clear_lane(lane)
    assert np.array_equal(lane, np.zeros(7))


def test_reduce_lanes_is_fixed_order_weighted_mean():
    rng = np.random.default_rng(2)
    num_shards, flat = 4, 9
    lanes = np.zeros((num_shards, flat + 1), dtype=ACCUM_DTYPE)
    weights = [3.0, 1.0, 4.0, 2.0]
    grads = []
    for s in range(num_shards):
        g = rng.standard_normal(flat)
        grads.append(g)
        write_lane(lanes[s], [g], [flat], weights[s])
    out = np.empty(flat, dtype=ACCUM_DTYPE)
    total = reduce_lanes(lanes, out)
    assert total == sum(weights)
    # The spec sum: ascending shard order, f64 throughout, divide once.
    expected = np.zeros(flat, dtype=ACCUM_DTYPE)
    for s in range(num_shards):
        expected = expected + grads[s] * weights[s]
    expected = expected / sum(weights)
    assert np.array_equal(out, expected)


def test_reduce_lanes_skips_zero_weight_lanes_entirely():
    lanes = np.zeros((3, 5), dtype=ACCUM_DTYPE)
    write_lane(lanes[0], [np.ones(4)], [4], 2.0)
    # Garbage in a sat-out lane (stale double-buffer slot) must not leak:
    # weight zero means the reducer never reads the grad span.
    lanes[1, :-1] = np.nan
    lanes[1, -1] = 0.0
    write_lane(lanes[2], [np.ones(4)], [4], 1.0)
    out = np.empty(4, dtype=ACCUM_DTYPE)
    total = reduce_lanes(lanes, out)
    assert total == 3.0
    assert np.array_equal(out, np.ones(4))


def test_reduce_lanes_no_contribution_returns_zero_weight():
    lanes = np.zeros((2, 4), dtype=ACCUM_DTYPE)
    out = np.full(3, 7.0, dtype=ACCUM_DTYPE)
    assert reduce_lanes(lanes, out) == 0.0
    assert np.array_equal(out, np.zeros(3))


# ---------------------------------------------------------------------------
# Reduce-window marker
# ---------------------------------------------------------------------------
def test_reduce_window_depth_tracks_nesting():
    assert not in_reduce_window()

    @reduce_window
    def inner():
        return in_reduce_window()

    @reduce_window
    def outer():
        assert in_reduce_window()
        return inner()

    assert outer() is True
    assert not in_reduce_window()


def test_reduce_window_unwinds_on_exception():
    @reduce_window
    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        boom()
    assert not in_reduce_window()


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------
def _exercise(comm, rng):
    """One synthetic two-step exchange; returns (reduced0, reduced1)."""
    sizes = [5, 3]
    outs = []
    for step in range(2):
        lanes = comm.lanes(step)
        for s in range(comm.num_shards):
            grads = _grads(rng, sizes, np.float32)
            write_lane(lanes[s], grads, sizes, float(s + 1))
        out = np.empty(comm.flat_size, dtype=ACCUM_DTYPE)
        reduce_lanes(lanes, out)
        outs.append(out)
        lanes = None
    return outs


def test_local_and_shared_backends_are_bitwise_identical():
    local = LocalFlatComm(8, 3, "float32")
    shared = SharedFlatComm(8, 3, "float32")
    try:
        a = _exercise(local, np.random.default_rng(7))
        b = _exercise(shared, np.random.default_rng(7))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert local.grads.shape == (2, 3, 9)
        assert shared.grads.shape == (2, 3, 9)
        assert local.params.dtype == shared.params.dtype == np.float32
    finally:
        shared.close()
        shared.unlink()


def test_double_buffer_alternates_by_step_parity():
    comm = LocalFlatComm(4, 2, "float64")
    assert np.shares_memory(comm.lanes(0), comm.grads[0])
    assert not np.shares_memory(comm.lanes(0), comm.grads[1])
    assert np.shares_memory(comm.lanes(1), comm.grads[1])
    assert np.shares_memory(comm.lanes(2), comm.grads[0])


def test_shared_attach_sees_owner_writes_and_vice_versa():
    owner = SharedFlatComm(6, 2, "float64")
    try:
        write_segment(owner.params, np.arange(6, dtype=np.float64))
        peer = SharedFlatComm.attach(owner.spec())
        try:
            assert np.array_equal(peer.params, np.arange(6))
            write_lane(peer.lanes(0)[1], [np.ones(6)], [6], 4.0)
            assert owner.lanes(0)[1, -1] == 4.0
            assert np.array_equal(owner.lanes(0)[1, :-1], 4.0 * np.ones(6))
        finally:
            peer.close()
    finally:
        owner.close()
        owner.unlink()


def test_spec_is_picklable_and_complete():
    import pickle
    comm = SharedFlatComm(3, 2, "float32")
    try:
        spec = pickle.loads(pickle.dumps(comm.spec()))
        assert spec["flat_size"] == 3
        assert spec["num_shards"] == 2
        assert spec["dtype"] == "float32"
        assert set(spec["names"]) == {"grads", "params"}
    finally:
        comm.close()
        comm.unlink()


def test_probe_shared_memory_passes_here():
    # This platform runs the multi-process tests, so the probe must agree.
    probe_shared_memory()


def test_local_comm_close_unlink_are_noops():
    comm = LocalFlatComm(2, 1, "float32")
    comm.close()
    comm.unlink()
    assert comm.nbytes > 0
