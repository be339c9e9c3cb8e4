"""RL006 fixture: disciplined comm-segment handling — zero findings."""

import numpy as np

ACCUM_DTYPE = np.float64


def reduce_window(fn):
    return fn


@reduce_window
def clear(lane):
    lane[...] = 0.0


@reduce_window
def write(lane, grad, weight):
    np.multiply(grad, weight, out=lane[:-1], dtype=ACCUM_DTYPE)
    lane[-1] = weight


@reduce_window
def reduce(lanes, out):
    out[...] = 0.0
    np.add(out, lanes[0], out=out, dtype=ACCUM_DTYPE)


def read_only(lane):
    # Reads never need the window.
    return float(lane.sum())


def local_math(a, b, buf):
    # out= on ordinary local arrays outside a window is out of scope.
    np.multiply(a, b, out=buf)
    return buf


def indexed_by_lane_id(buf, lane_idx, value):
    # The marker must match the *base* expression, not the index.
    buf[lane_idx] = value

