"""Output-pruned flat GNNs: a row plan changes which rows are computed,
never what a computed row holds.

Every comparison runs the same model twice, once with ``plan=None`` (every
layer on every row, the reference) and once through the plan, from
identical weights and identical dropout streams.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CSCGraph, normalize_edges
from repro.layers.message_passing import propagate, propagate_block
from repro.models import GNNNodeClassifier
from repro.nn import cross_entropy
from repro.tensor import Tensor, default_dtype, naive_kernels

from ..graph.test_csc import random_symmetric_graph

PRUNABLE = ("gcn", "sage", "gat")
FEATURES = 6


def sampled(num_nodes=160, num_undirected=420, seeds=None, radius=2,
            fanout=4, seed=0):
    """One sampled ego-net and float32 features for its nodes."""
    edge_index = random_symmetric_graph(num_nodes, num_undirected, seed)
    csc = CSCGraph.from_edge_index(edge_index, num_nodes)
    if seeds is None:
        seeds = np.arange(0, num_nodes, 9)
    sub = csc.ego_net(seeds, radius, fanout, np.random.default_rng(seed))
    x = np.random.default_rng(seed + 1).standard_normal(
        (sub.num_nodes, FEATURES)).astype(np.float32)
    return sub, x


def step(model, sub, x_data, planned, dtype):
    """Seed logits, loss, parameter and input gradients of one train-mode
    step, and the plan (None for the full-row reference)."""
    weight = np.ones(sub.num_edges, dtype=dtype)
    plan = (model.row_plan(sub.edge_index, weight, sub.num_nodes,
                           sub.num_seeds) if planned else None)
    x = Tensor(x_data, dtype=dtype, requires_grad=True)
    with default_dtype(dtype):
        logits = model(x, sub.edge_index, weight, plan=plan)
    rows = logits.shape[0]
    labels = np.arange(sub.num_nodes) % 3
    loss = cross_entropy(logits, labels[:rows],
                         mask=sub.seed_mask()[:rows])
    loss.backward()
    return (logits.data[:sub.num_seeds], float(loss.data),
            [p.grad for p in model.parameters()], x.grad, plan)


def assert_pruned_matches_full(kind, sub, x, num_layers=2,
                               dtype="float32"):
    model = GNNNodeClassifier(kind, FEATURES, 3, hidden=8,
                              num_layers=num_layers,
                              rng=np.random.default_rng(7)).astype(dtype)
    twin = copy.deepcopy(model)
    full = step(model, sub, x, planned=False, dtype=dtype)
    pruned = step(twin, sub, x, planned=True, dtype=dtype)
    plan = pruned[4]
    assert len(plan.blocks) == num_layers
    assert pruned[0].shape == (sub.num_seeds, 3)
    assert pruned[0].dtype == np.dtype(dtype)
    np.testing.assert_allclose(pruned[0], full[0], rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(pruned[1], full[1], rtol=1e-5)
    for got, want in zip(pruned[2], full[2]):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
    # Rows no layer reads get exactly zero input gradient either way.
    needed = np.zeros(sub.num_nodes, dtype=bool)
    needed[plan.input_rows] = True
    assert not pruned[3][~needed].any()
    assert not full[3][~needed].any()
    np.testing.assert_allclose(pruned[3], full[3], rtol=1e-5, atol=1e-7)
    # A planned layer advances the PCG64 stream over the rows it drops
    # and draws only the kept span: the streams agree.
    assert (twin.encoder.dropout.rng.bit_generator.state
            == model.encoder.dropout.rng.bit_generator.state)


@pytest.mark.parametrize("kind", PRUNABLE)
@pytest.mark.parametrize("num_layers,radius", [(1, 2), (2, 2), (3, 2),
                                               (2, 1), (2, 3), (3, 1)])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_pruned_step_matches_full_rows(kind, num_layers, radius, dtype):
    sub, x = sampled(radius=radius)
    assert_pruned_matches_full(kind, sub, x, num_layers, dtype)


@pytest.mark.parametrize("kind", PRUNABLE)
def test_pruned_step_matches_full_rows_under_naive_kernels(kind):
    # The reference kernels aggregate blocks by gather + segment sum.
    sub, x = sampled()
    with naive_kernels():
        assert_pruned_matches_full(kind, sub, x)


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(PRUNABLE), num_nodes=st.integers(2, 60),
       num_undirected=st.integers(0, 150), num_layers=st.integers(1, 3),
       radius=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_pruned_step_matches_full_rows_on_random_graphs(
        kind, num_nodes, num_undirected, num_layers, radius, seed):
    seeds = np.random.default_rng(seed).choice(
        num_nodes, size=max(1, num_nodes // 5), replace=False)
    sub, x = sampled(num_nodes, num_undirected, seeds=seeds, radius=radius,
                     seed=seed)
    assert_pruned_matches_full(kind, sub, x, num_layers)


@pytest.mark.parametrize("kind", PRUNABLE)
def test_isolated_seeds(kind):
    # High ids of random_symmetric_graph are often isolated; mix some
    # isolated seeds with connected ones, then use isolated ones only.
    edge_index = random_symmetric_graph(160, 420, 0)
    degree = np.bincount(edge_index[1], minlength=160)
    isolated = np.flatnonzero(degree == 0)[:2]
    connected = np.flatnonzero(degree > 0)[:4]
    assert isolated.size == 2
    sub, x = sampled(seeds=np.concatenate([isolated, connected]))
    assert_pruned_matches_full(kind, sub, x)
    sub, x = sampled(seeds=isolated)
    assert sub.num_edges == 0
    assert_pruned_matches_full(kind, sub, x)


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_gcn_spmv_rows_are_bitwise_full_rows(num_layers):
    sub, _ = sampled(radius=3)
    weight = np.ones(sub.num_edges, dtype=np.float32)
    norm_index, norm_weight = normalize_edges(sub.edge_index, weight,
                                              sub.num_nodes)
    model = GNNNodeClassifier("gcn", FEATURES, 3, num_layers=num_layers,
                              rng=np.random.default_rng(0))
    plan = model.row_plan(sub.edge_index, weight, sub.num_nodes,
                          sub.num_seeds)
    h = np.random.default_rng(3).standard_normal(
        (sub.num_nodes, 16)).astype(np.float32)
    full = propagate(Tensor(h), norm_index, sub.num_nodes,
                     edge_weight=norm_weight).data
    in_rows = plan.input_rows
    for block in plan.blocks:
        out = propagate_block(Tensor(h[in_rows]), block).data
        assert np.array_equal(out, full[block.rows])
        in_rows = block.rows


@pytest.mark.parametrize("kind", PRUNABLE)
def test_num_outputs_plans_inside_the_forward(kind):
    sub, x = sampled()
    model = GNNNodeClassifier(kind, FEATURES, 3, hidden=8,
                              rng=np.random.default_rng(0)).eval()
    plan = model.row_plan(sub.edge_index, None, sub.num_nodes,
                          sub.num_seeds)
    given = model(Tensor(x), sub.edge_index, plan=plan).data
    built = model(Tensor(x), sub.edge_index,
                  num_outputs=sub.num_seeds).data
    assert built.shape == (sub.num_seeds, 3)
    assert np.array_equal(given, built)


def test_gin_computes_every_row():
    sub, x = sampled()
    model = GNNNodeClassifier("gin", FEATURES, 3, hidden=8,
                              rng=np.random.default_rng(0))
    assert model.row_plan(sub.edge_index, None, sub.num_nodes,
                          sub.num_seeds) is None
    out = model(Tensor(x), sub.edge_index, num_outputs=sub.num_seeds)
    assert out.shape == (sub.num_nodes, 3)


def test_sampled_gcn_layer_one_aggregates_before_it_transforms(monkeypatch):
    # Layer 1 of a radius-2 step reads every subgraph row and keeps far
    # fewer, so GCNConv aggregates first: its GEMM sees the kept rows
    # only, and its SpMM reads the features, which need no gradient, so
    # the SpMM has no backward.
    import repro.layers.gcn as gcn
    seen = []
    original = gcn.affine

    def spy(x, weight, bias):
        seen.append(x)
        return original(x, weight, bias)

    monkeypatch.setattr(gcn, "affine", spy)
    edge_index = random_symmetric_graph(400, 1600, 0)
    csc = CSCGraph.from_edge_index(edge_index, 400)
    sub = csc.ego_net(np.arange(0, 400, 13), 2, 4, np.random.default_rng(0))
    features = np.random.default_rng(1).standard_normal(
        (400, FEATURES)).astype(np.float32)
    model = GNNNodeClassifier("gcn", FEATURES, 3, hidden=8,
                              rng=np.random.default_rng(0)).astype("float32")
    weight = np.ones(sub.num_edges, dtype=np.float32)
    plan = model.row_plan(sub.edge_index, weight, sub.num_nodes,
                          sub.num_seeds, sub.indptr)
    logits = model(Tensor(features, dtype="float32"), sub.edge_index,
                   weight, plan=plan, input_nodes=sub.nodes)
    cross_entropy(logits, np.zeros(sub.num_seeds, dtype=np.int64)).backward()
    assert plan.blocks[0].num_out < plan.input_rows.shape[0]
    layer_one = seen[0]
    assert layer_one.shape[0] == plan.blocks[0].num_out
    assert not layer_one.requires_grad
    assert not any(p.requires_grad for p in layer_one._parents)
    assert all(p.grad is not None for p in model.parameters())
