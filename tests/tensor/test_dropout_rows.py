"""Row-pruned dropout draws the bits the whole block's mask would.

``dropout(x, p, rng, rows=rows, num_rows=n)`` keeps rows ``rows`` of an
``(n, ...)`` block.  The reference is the whole-block draw sliced to those
rows, as dropout drew it before it learnt to skip: a ``PCG64`` stream
advanced over the unkept rows must give the same mask, output and
gradient, and end in the same state.
"""

import numpy as np
import pytest

from repro.graph import CSCGraph
from repro.models import GNNNodeClassifier
from repro.tensor import Tensor, dropout

from ..graph.test_csc import random_symmetric_graph

P = 0.4


def reference(x_data, grad, rng, rows, num_rows):
    """Mask, output and input gradient from the whole-block draw."""
    draw = rng.random((num_rows,) + x_data.shape[1:])[rows]
    keep = (draw >= P).astype(x_data.dtype) / (1.0 - P)
    return keep, x_data * keep, grad * keep


def pruned(x_data, grad, rng, rows, num_rows):
    x = Tensor(x_data, requires_grad=True, dtype=x_data.dtype)
    out = dropout(x, P, rng, rows=rows, num_rows=num_rows)
    (out * Tensor(grad, dtype=grad.dtype)).sum().backward()
    return out.data, x.grad


def same_state(a, b) -> bool:
    """Equality of bit-generator states, which may hold arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k])
                                            for k in a)
    return bool(np.array_equal(a, b))


def assert_matches_full_draw(make_rng, rows, num_rows, row_shape=(5,),
                             dtype=np.float32):
    rows = np.asarray(rows, dtype=np.int64)
    data = np.random.default_rng(1)
    x_data = data.standard_normal((rows.size,) + row_shape).astype(dtype)
    grad = data.standard_normal(x_data.shape).astype(dtype)
    want_rng, got_rng = make_rng(), make_rng()
    keep, want_out, want_grad = reference(x_data, grad, want_rng, rows,
                                          num_rows)
    got_out, got_grad = pruned(x_data, grad, got_rng, rows, num_rows)
    assert got_out.dtype == np.dtype(dtype)
    assert np.array_equal(got_out, want_out)
    assert np.array_equal(got_grad, want_grad)
    # Output zeros mark the dropped units: the masks agree unit for unit.
    assert np.array_equal(got_out == 0, (keep == 0) | (x_data == 0))
    assert same_state(got_rng.bit_generator.state,
                      want_rng.bit_generator.state)
    # And the next draw from either stream is the same.
    assert np.array_equal(got_rng.random(3), want_rng.random(3))


ROW_CASES = {
    "prefix": ([0, 1, 2, 3], 11),
    "scattered": ([1, 4, 5, 9], 11),
    "last_row_alone": ([10], 11),
    "every_row": (list(range(11)), 11),
    "middle_span": ([3, 4, 5], 11),
    "no_rows": ([], 11),
}


@pytest.mark.parametrize("case", sorted(ROW_CASES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pcg64_span_draw_equals_full_draw(case, dtype):
    rows, num_rows = ROW_CASES[case]
    assert_matches_full_draw(lambda: np.random.default_rng(7), rows,
                             num_rows, dtype=dtype)


@pytest.mark.parametrize("case", ["prefix", "scattered", "no_rows"])
def test_three_dimensional_input(case):
    rows, num_rows = ROW_CASES[case]
    assert_matches_full_draw(lambda: np.random.default_rng(3), rows,
                             num_rows, row_shape=(3, 4))


def _pcg64_holding_half():
    rng = np.random.default_rng(5)
    rng.integers(0, 2 ** 31, dtype=np.uint32)       # buffers a 32-bit half
    assert rng.bit_generator.state["has_uint32"]
    return rng


def _pcg64_spent_half():
    rng = _pcg64_holding_half()
    rng.integers(0, 2 ** 31, dtype=np.uint32)       # spends it
    state = rng.bit_generator.state
    assert not state["has_uint32"] and state["uinteger"]
    return rng


@pytest.mark.parametrize("make_rng", [
    lambda: np.random.Generator(np.random.MT19937(11)),
    lambda: np.random.Generator(np.random.Philox(11)),
    _pcg64_holding_half,
    _pcg64_spent_half,
], ids=["mt19937", "philox", "pcg64_buffered_half", "pcg64_spent_half"])
@pytest.mark.parametrize("case", ["prefix", "scattered", "last_row_alone"])
def test_other_streams_draw_the_whole_block(make_rng, case):
    rows, num_rows = ROW_CASES[case]
    assert_matches_full_draw(make_rng, rows, num_rows)


class SpyGenerator:
    """A Generator stand-in that records the size of every ``random``."""

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.sizes = []

    def random(self, size):
        self.sizes.append(tuple(np.atleast_1d(size)))
        return self.rng.random(size)


def test_sampled_layer_one_draws_only_its_rows():
    # Radius 2, two layers: layer 1 keeps the seeds and their
    # neighbours.  ego_net numbers seeds, then hop-1 nodes, and no hop-2
    # node touches a seed, so those rows are a prefix and the mask is
    # drawn at exactly their shape.
    edge_index = random_symmetric_graph(400, 1600, 0)
    csc = CSCGraph.from_edge_index(edge_index, 400)
    sub = csc.ego_net(np.arange(0, 400, 13), 2, 4,
                      np.random.default_rng(0))
    hidden = 8
    model = GNNNodeClassifier("gcn", 6, 3, hidden=hidden,
                              rng=np.random.default_rng(0))
    spy = SpyGenerator(model.encoder.dropout.rng)
    model.encoder.dropout.rng = spy
    x = Tensor(np.random.default_rng(1).standard_normal((sub.num_nodes, 6)))
    model(x, sub.edge_index, num_outputs=sub.num_seeds, indptr=sub.indptr)
    plan = model.row_plan(sub.edge_index, None, sub.num_nodes,
                          sub.num_seeds, sub.indptr)
    rows = plan.blocks[0].rows
    assert rows.size < sub.num_nodes
    assert np.array_equal(rows, np.arange(rows.size))
    assert spy.sizes == [(rows.size, hidden)]
