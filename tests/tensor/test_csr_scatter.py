"""Counting-sort plans and the weighted-CSR product, bit for bit.

The segment plans used to sort their ids with a stable ``argsort``, and
every gather-scale-scatter (the ``pair_dot`` and Eq. 6 backwards, both
directions of ``gather_scale_segment_sum``) built a ``(P, d)`` block of
scaled rows and summed it through the plan: a CSR product with a 0/1
selector from ``_SPARSE_MIN_ROWS`` rows up, ``add.reduceat`` below.  The
references here rebuild exactly that path, and every test asserts the
production kernels equal it bit for bit, at 511, 512 and 513 rows, in
float32 and float64, on ids with duplicates, empty segments and a single
segment.

The weighted product sums ``w_k · x[c_k]`` where the old path summed
pre-multiplied rows ``1 · v_k``; the two agree only while the C kernel
rounds each product before adding it.  A SciPy build that contracted the
multiply-add into an FMA would fail these tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import _sparsetools

import repro.core.losses as core_losses
from repro.core.losses import _pair_bce_fused, sample_non_edges
from repro.tensor import (Tensor, clear_plan_cache, gather_rows,
                          gather_scale_segment_sum, naive_kernels, pair_dot,
                          plan_for)
from repro.tensor import _segment_plans as plans

SIZES = [511, 512, 513]
DTYPES = [np.float32, np.float64]


# ---------------------------------------------------------------------------
# The argsort-and-gather path the kernels replaced
# ---------------------------------------------------------------------------
def argsort_plan(ids, num_segments):
    """``(order, starts, present, counts)`` by stable argsort."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    if sorted_ids.size:
        boundary = np.empty(sorted_ids.size, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        present = sorted_ids[starts]
    else:
        starts = np.zeros(0, dtype=np.int64)
        present = np.zeros(0, dtype=np.int64)
    counts = np.bincount(ids, minlength=num_segments)
    return order, starts, present, counts


def argsort_sum(values, ids, num_segments):
    """2-D segment sum as the argsort plans computed it."""
    order, starts, present, counts = argsort_plan(ids, num_segments)
    if values.shape[0] >= 512:
        indptr = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        out = np.zeros((num_segments, values.shape[1]), dtype=values.dtype)
        _sparsetools.csr_matvecs(num_segments, values.shape[0],
                                 values.shape[1], indptr, order,
                                 np.ones(values.shape[0], values.dtype),
                                 np.ascontiguousarray(values).ravel(),
                                 out.ravel())
        return out
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    if starts.size:
        out[present] = np.add.reduceat(values[order], starts, axis=0)
    return out


def argsort_pair_scatter(x, w, a, b):
    """The old ``pair_dot`` backward: one sum over the joined ids."""
    g = w[:, None]
    vals = np.concatenate([g * x[b], g * x[a]])
    return argsort_sum(vals, np.concatenate([a, b]), x.shape[0])


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@st.composite
def id_cases(draw, sizes=SIZES):
    """``(rng, P, num_segments)``: one segment, a few, or mostly empty."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    p = draw(st.sampled_from(sizes))
    segments = draw(st.sampled_from([1, 3, 40, 5 * p]))
    return np.random.default_rng(seed), p, segments


def features(rng, n, d, dtype):
    return rng.normal(size=(n, d)).astype(dtype)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(case=id_cases(sizes=[0, 1, 2, *SIZES]))
def test_counting_sort_plan_matches_stable_argsort(case):
    rng, p, segments = case
    ids = rng.integers(0, segments, size=p)
    plan = plans.SegmentReductionPlan(ids, segments)
    order, starts, present, counts = argsort_plan(ids, segments)
    for got, want in ((plan.order, order), (plan.starts, starts),
                      (plan.present, present), (plan.counts, counts)):
        assert_bitwise(got.astype(np.int64), want.astype(np.int64))


@settings(max_examples=30, deadline=None)
@given(case=id_cases(), dtype=st.sampled_from(DTYPES))
def test_plan_sum_matches_argsort_sum(case, dtype):
    rng, p, segments = case
    ids = rng.integers(0, segments, size=p)
    values = features(rng, p, 5, dtype)
    got = plans.SegmentReductionPlan(ids, segments).sum(values)
    assert_bitwise(got, argsort_sum(values, ids, segments))


def test_plan_rejects_ids_out_of_range():
    # The counting sort writes through the ids unchecked in C.
    with pytest.raises(ValueError, match="segment ids"):
        plan_for(np.array([0, 3], dtype=np.int64), 3)
    with pytest.raises(ValueError, match="segment ids"):
        plan_for(np.array([-1, 0], dtype=np.int64), 3)


# ---------------------------------------------------------------------------
# Gather-scale-scatters
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(case=id_cases(sizes=[255, 256, 257, *SIZES,
                            2 * plans._DOT_BLOCK + 3]),
       dtype=st.sampled_from(DTYPES))
def test_pair_dot_matches_argsort_path(case, dtype):
    # The largest size spans three of the forward's row blocks.
    rng, p, n = case
    data = features(rng, n, 6, dtype)
    a = rng.integers(0, n, size=p)
    b = rng.integers(0, n, size=p)
    upstream = rng.normal(size=p).astype(dtype)
    x = Tensor(data.copy(), requires_grad=True, dtype=dtype)
    out = pair_dot(x, a, b)
    out.backward(upstream)
    assert_bitwise(out.data, np.einsum("ij,ij->i", data[a], data[b]))
    assert_bitwise(x.grad, argsort_pair_scatter(data, upstream, a, b))


@settings(max_examples=30, deadline=None)
@given(case=id_cases(sizes=[255, 256, 257, *SIZES]),
       dtype=st.sampled_from(DTYPES))
def test_fused_bce_matches_argsort_path(case, dtype):
    rng, p, n = case
    data = features(rng, n, 6, dtype)
    pos = rng.integers(0, n, size=(2, p))
    neg = rng.integers(0, n, size=(2, p + 3))
    h = Tensor(data.copy(), requires_grad=True, dtype=dtype)
    out = _pair_bce_fused(h, pos, neg)
    out.backward()

    pos_logits = np.einsum("ij,ij->i", data[pos[0]], data[pos[1]])
    neg_logits = np.einsum("ij,ij->i", data[neg[0]], data[neg[1]])
    count = pos_logits.shape[0] + neg_logits.shape[0]
    ep = np.exp(-np.abs(pos_logits))
    en = np.exp(-np.abs(neg_logits))
    pos_term = np.maximum(pos_logits, 0.0) - pos_logits + np.log1p(ep)
    neg_term = np.maximum(neg_logits, 0.0) + np.log1p(en)
    loss = np.asarray((pos_term.sum(dtype=np.float64)
                       + neg_term.sum(dtype=np.float64)) / count,
                      dtype=dtype)
    scale = 1.0 / count
    sig_p = np.where(pos_logits >= 0, 1.0, ep) / (1.0 + ep)
    sig_n = np.where(neg_logits >= 0, 1.0, en) / (1.0 + en)
    grad = argsort_pair_scatter(data, (sig_p - 1.0) * scale, pos[0], pos[1])
    grad += argsort_pair_scatter(data, sig_n * scale, neg[0], neg[1])
    assert_bitwise(out.data, loss)
    assert_bitwise(h.grad, grad)


@settings(max_examples=30, deadline=None)
@given(case=id_cases(), dtype=st.sampled_from(DTYPES))
def test_gather_scale_segment_sum_matches_argsort_path(case, dtype):
    rng, p, segments = case
    n = int(rng.integers(1, 2 * p))
    data = features(rng, n, 7, dtype)
    cols = rng.integers(0, n, size=p)
    ids = rng.integers(0, segments, size=p)
    weights = rng.normal(size=p).astype(dtype)
    upstream = features(rng, segments, 7, dtype)
    x = Tensor(data.copy(), requires_grad=True, dtype=dtype)
    s = Tensor(weights.copy(), requires_grad=True, dtype=dtype)
    out = gather_scale_segment_sum(x, cols, s, ids, segments)
    out.backward(upstream)

    w = weights[:, None]
    assert_bitwise(out.data, argsort_sum(data[cols] * w, ids, segments))
    assert_bitwise(x.grad, argsort_sum(upstream[ids] * w, cols, n))
    assert_bitwise(s.grad,
                   np.einsum("ij,ij->i", upstream[ids], data[cols]))


def test_gather_scale_segment_sum_checks_gather_ids():
    x = Tensor(np.ones((3, 2)))
    scale = Tensor(np.ones(600))
    ids = np.zeros(600, dtype=np.int64)
    with pytest.raises(IndexError):
        gather_scale_segment_sum(x, np.full(600, 3), scale, ids, 1)
    wrapped = gather_scale_segment_sum(x, np.full(600, -1), scale, ids, 1)
    np.testing.assert_array_equal(wrapped.data, [[600.0, 600.0]])


# ---------------------------------------------------------------------------
# Negative row ids: one rule for every gather backward, either kernel
# ---------------------------------------------------------------------------
def _gathers(index):
    other = index[::-1].copy()
    return {
        "gather_rows": (lambda x: gather_rows(x, index),
                        lambda d, g: _add_at(d, index, g)),
        "getitem": (lambda x: x[index],
                    lambda d, g: _add_at(d, index, g)),
        "pair_dot": (lambda x: pair_dot(x, index, other),
                     lambda d, g: (_add_at(d, index, g[:, None] * d[other])
                                   + _add_at(d, other,
                                             g[:, None] * d[index]))),
    }


def _add_at(like, index, values):
    out = np.zeros_like(like)
    np.add.at(out, index, values)
    return out


@pytest.mark.parametrize("rows", [4, 600])
@pytest.mark.parametrize("naive", [False, True])
@pytest.mark.parametrize("op", ["gather_rows", "getitem", "pair_dot"])
def test_negative_ids_wrap_in_the_backward(rows, naive, op):
    rng = np.random.default_rng(rows)
    data = rng.normal(size=(rows, 3))
    index = np.arange(rows, dtype=np.int64) - 1     # -1, 0, 1, ...
    index[rows // 2] = -rows
    forward, expected = _gathers(index)[op]
    x = Tensor(data.copy(), requires_grad=True)
    if naive:
        with naive_kernels():
            out = forward(x)
            upstream = rng.normal(size=out.data.shape)
            out.backward(upstream)
    else:
        out = forward(x)
        upstream = rng.normal(size=out.data.shape)
        out.backward(upstream)
    np.testing.assert_allclose(x.grad, expected(data, upstream), atol=1e-12)


def test_row_ids_out_of_range_raise():
    with pytest.raises(IndexError):
        plans.row_ids(np.array([0, 4]), 4)
    with pytest.raises(IndexError):
        plans.row_ids(np.array([-5, 0]), 4)


# ---------------------------------------------------------------------------
# The Eq. 6 negative sampler
# ---------------------------------------------------------------------------
def searchsorted_non_edges(edge_index, num_nodes, count, rng):
    """The sampler as it was, with the unsorted membership search."""
    existing = np.unique(edge_index[0].astype(np.int64) * num_nodes
                         + edge_index[1])

    def is_edge(codes):
        if existing.size == 0:
            return np.zeros(codes.shape, dtype=bool)
        pos = np.searchsorted(existing, codes)
        pos[pos == existing.size] = existing.size - 1
        return existing[pos] == codes

    out_u, out_v = [], []
    found = attempts = 0
    budget = 20 * max(count, 1)
    while found < count and attempts < budget:
        m = min(max(2 * (count - found), 64), budget - attempts)
        u = rng.integers(0, num_nodes, size=m)
        v = rng.integers(0, num_nodes, size=m)
        attempts += m
        keep = (u != v) & ~is_edge(u * num_nodes + v)
        u, v = u[keep], v[keep]
        if u.size:
            out_u.append(u)
            out_v.append(v)
            found += u.size
    while found < count:
        m = count - found
        u = rng.integers(0, num_nodes, size=m)
        v = rng.integers(0, num_nodes, size=m)
        keep = u != v
        u, v = u[keep], v[keep]
        if u.size:
            out_u.append(u)
            out_v.append(v)
            found += u.size
    if not out_u:
        return np.zeros((2, 0), dtype=np.int64)
    return np.stack([np.concatenate(out_u)[:count],
                     np.concatenate(out_v)[:count]]).astype(np.int64)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       num_nodes=st.sampled_from([2, 3, 5, 40, 300]),
       density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       count=st.sampled_from([0, 1, 7, 600]))
def test_sample_non_edges_draws_what_it_drew(seed, num_nodes, density,
                                             count):
    # density 1.0 is the complete digraph: every candidate that is not a
    # self-loop is an edge, so the sampler runs out its rejection budget
    # and reaches the fallback.
    graph_rng = np.random.default_rng(seed)
    u, v = np.nonzero(graph_rng.random((num_nodes, num_nodes)) < density)
    edge_index = np.stack([u, v]).astype(np.int64)
    fresh = np.random.default_rng(seed + 1)
    old = np.random.default_rng(seed + 1)
    got = sample_non_edges(edge_index, num_nodes, count, fresh)
    want = searchsorted_non_edges(edge_index, num_nodes, count, old)
    assert_bitwise(got, want)
    assert fresh.bit_generator.state == old.bit_generator.state


def test_training_step_caches_no_plan_for_its_negatives(monkeypatch):
    from repro.datasets import load_graph_dataset
    from repro.training import GraphClassificationTrainer, TrainConfig
    from repro.training.experiment import make_graph_classifier

    drawn = []
    sampler = core_losses.sample_non_edges

    def recording(*args, **kwargs):
        pairs = sampler(*args, **kwargs)
        drawn.append(pairs)
        return pairs

    monkeypatch.setattr(core_losses, "sample_non_edges", recording)
    dataset = load_graph_dataset("proteins", seed=0)
    model = make_graph_classifier("adamgnn", dataset.num_features,
                                  dataset.num_classes, seed=0, hidden=16,
                                  num_levels=2)
    # In-process, so the recording sampler is the one the steps call.
    trainer = GraphClassificationTrainer(TrainConfig(
        epochs=1, patience=1, seed=0, batch_size=32, num_procs=1))
    clear_plan_cache()
    trainer.fit(model, dataset)
    assert drawn and sum(pairs.size for pairs in drawn) > 0
    for cached in plans._CACHE.values():
        for pairs in drawn:
            assert not np.shares_memory(cached.ids, pairs)
