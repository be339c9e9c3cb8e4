"""RL006 fixture: comm-segment writes outside a reduce window — 4 findings."""

import numpy as np

from repro.tensor._comm import reduce_window


def leak_store(lane, grad):
    # Subscript store into a lane with no reduce window in sight.
    lane[:] = grad


def leak_augassign(segment, lo, hi, update):
    segment[lo:hi] += update


def leak_fill(segment):
    segment.fill(0.0)


def leak_out(lane, grad, weight):
    np.multiply(grad, weight, out=lane)

