"""The planned-edge GCN row plan against the normalise-everything oracle.

``build_row_plan(..., normalize=True)`` normalises only the entries its
blocks keep and, given a sampled ego-net's ``indptr``, sorts nothing.
The oracle is the earlier pipeline: ``normalize_edges`` over every edge,
the canonical CSR of the result, and each layer's input rows found by a
sort.  On ego-net subgraphs (distinct, symmetric edges) the two agree
array for array; on arbitrary edge lists with duplicates, which the
plan sums before normalising, the weights agree to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (CSCGraph, build_row_plan, normalize_edges,
                         sorted_unique)
from repro.graph.blocks import canonical_csr
from repro.graph.csc import _segment_positions
from repro.models import GNNNodeClassifier

from .test_csc import random_symmetric_graph


def oracle_plan(edge_index, edge_weight, num_nodes, num_outputs,
                num_layers):
    """``[(rows, self_index, indptr, indices, data, num_in), ...]`` first
    layer first, and the input rows, from whole-graph normalisation."""
    norm_index, norm_weight = normalize_edges(edge_index, edge_weight,
                                              num_nodes)
    indptr, indices, data = canonical_csr(norm_index[0], norm_index[1],
                                          norm_weight, num_nodes, num_nodes)
    lookup = np.empty(num_nodes, dtype=np.int64)
    rows = np.arange(num_outputs, dtype=np.int64)
    blocks = []
    for _ in range(num_layers):
        starts = indptr[rows]
        counts = indptr[rows + 1] - starts
        positions = _segment_positions(starts, counts)
        sources = indices[positions]
        in_rows = sorted_unique(np.concatenate([rows, sources]))
        lookup[in_rows] = np.arange(in_rows.shape[0])
        block_indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=block_indptr[1:])
        blocks.append((rows, lookup[rows], block_indptr, lookup[sources],
                       data[positions], int(in_rows.shape[0])))
        rows = in_rows
    return blocks[::-1], rows


def assert_plans_equal(plan, oracle, bitwise=True):
    blocks, input_rows = oracle
    assert np.array_equal(plan.input_rows, input_rows)
    assert len(plan.blocks) == len(blocks)
    for block, (rows, self_index, indptr, indices, data, num_in) in zip(
            plan.blocks, blocks):
        assert np.array_equal(block.rows, rows)
        assert np.array_equal(block.self_index, self_index)
        assert np.array_equal(block.indptr, indptr)
        assert np.array_equal(block.indices, indices)
        assert block.num_in == num_in
        assert block.data.dtype == data.dtype
        if bitwise:
            assert np.array_equal(block.data, data)
        else:
            np.testing.assert_allclose(block.data, data, rtol=1e-6)


def with_self_loops(edge_index, num_nodes, seed):
    """``edge_index`` plus self-loops on a random third of the nodes."""
    loops = np.flatnonzero(
        np.random.default_rng(seed).random(num_nodes) < 1 / 3)
    return np.concatenate([edge_index, np.stack([loops, loops])], axis=1)


def symmetric_weights(edge_index, seed, dtype):
    """Positive weights with ``w(u, v) == w(v, u)``."""
    lo = np.minimum(*edge_index)
    hi = np.maximum(*edge_index)
    table = np.random.default_rng(seed).uniform(
        0.25, 2.0, size=(int(hi.max(initial=0)) + 1) ** 2)
    return table[lo * (int(hi.max(initial=0)) + 1) + hi].astype(dtype)


@settings(max_examples=40, deadline=None)
@given(num_nodes=st.integers(2, 70), num_undirected=st.integers(0, 200),
       radius=st.integers(1, 3), fanout=st.sampled_from([None, 1, 10]),
       num_layers=st.integers(1, 3), self_loops=st.booleans(),
       weighted=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 16))
def test_egonet_plan_is_bitwise_the_oracle(num_nodes, num_undirected,
                                           radius, fanout, num_layers,
                                           self_loops, weighted, dtype,
                                           seed):
    edge_index = random_symmetric_graph(num_nodes, num_undirected, seed)
    if self_loops:
        edge_index = with_self_loops(edge_index, num_nodes, seed)
    csc = CSCGraph.from_edge_index(edge_index, num_nodes)
    # High ids are often isolated, so some seeds are too.
    seeds = np.random.default_rng(seed).choice(
        num_nodes, size=max(1, num_nodes // 4), replace=False)
    sub = csc.ego_net(seeds, radius, fanout, np.random.default_rng(seed))
    weight = (symmetric_weights(sub.edge_index, seed, dtype) if weighted
              else np.ones(sub.num_edges, dtype=dtype))
    oracle = oracle_plan(sub.edge_index, weight, sub.num_nodes,
                         sub.num_seeds, num_layers)
    for indptr in (sub.indptr, None):
        plan = build_row_plan(sub.edge_index, weight, sub.num_nodes,
                              sub.num_seeds, num_layers, normalize=True,
                              indptr=indptr)
        assert_plans_equal(plan, oracle)


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_model_plan_is_bitwise_the_oracle(num_layers):
    edge_index = with_self_loops(random_symmetric_graph(300, 1200, 4), 300,
                                 4)
    csc = CSCGraph.from_edge_index(edge_index, 300)
    sub = csc.ego_net(np.arange(0, 300, 11), 2, 5, np.random.default_rng(4))
    weight = np.ones(sub.num_edges, dtype=np.float32)
    model = GNNNodeClassifier("gcn", 6, 3, num_layers=num_layers,
                              rng=np.random.default_rng(0))
    oracle = oracle_plan(sub.edge_index, weight, sub.num_nodes,
                         sub.num_seeds, num_layers)
    assert_plans_equal(model.row_plan(sub.edge_index, weight, sub.num_nodes,
                                      sub.num_seeds, sub.indptr), oracle)
    assert_plans_equal(model.row_plan(sub.edge_index, weight, sub.num_nodes,
                                      sub.num_seeds), oracle)


@pytest.mark.parametrize("connected", [0, 4])
def test_isolated_seed_plans_are_bitwise_the_oracle(connected):
    edge_index = with_self_loops(random_symmetric_graph(160, 420, 0), 160,
                                 0)
    degree = np.bincount(edge_index[1], minlength=160)
    has_self = np.zeros(160, dtype=bool)
    has_self[edge_index[0][edge_index[0] == edge_index[1]]] = True
    isolated = np.flatnonzero(degree == has_self)[:3]
    assert isolated.size
    seeds = np.concatenate([isolated,
                            np.flatnonzero(degree > 2)[:connected]])
    sub = CSCGraph.from_edge_index(edge_index, 160).ego_net(
        seeds, 2, 4, np.random.default_rng(0))
    weight = np.ones(sub.num_edges, dtype=np.float32)
    plan = build_row_plan(sub.edge_index, weight, sub.num_nodes,
                          sub.num_seeds, 2, normalize=True,
                          indptr=sub.indptr)
    assert_plans_equal(plan, oracle_plan(sub.edge_index, weight,
                                         sub.num_nodes, sub.num_seeds, 2))


@settings(max_examples=40, deadline=None)
@given(num_nodes=st.integers(1, 40), num_pairs=st.integers(0, 120),
       num_outputs=st.integers(0, 40), num_layers=st.integers(1, 3),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 16))
def test_weighted_edge_lists_with_duplicates_match_to_rounding(
        num_nodes, num_pairs, num_outputs, num_layers, dtype, seed):
    rng = np.random.default_rng(seed)
    # Pairs drawn with replacement repeat, self-loops included; both
    # directions carry the pair's weight, so the list is symmetric.
    src = rng.integers(0, num_nodes, size=num_pairs)
    dst = rng.integers(0, num_nodes, size=num_pairs)
    pair_weight = rng.uniform(0.25, 2.0, size=num_pairs)
    edge_index = np.stack([np.concatenate([src, dst]),
                           np.concatenate([dst, src])])
    order = rng.permutation(edge_index.shape[1])
    edge_index = edge_index[:, order]
    weight = np.concatenate([pair_weight, pair_weight])[order].astype(dtype)
    num_outputs = min(num_outputs, num_nodes)
    plan = build_row_plan(edge_index, weight, num_nodes, num_outputs,
                          num_layers, normalize=True)
    assert_plans_equal(plan, oracle_plan(edge_index, weight, num_nodes,
                                         num_outputs, num_layers),
                       bitwise=False)


def test_asymmetric_edges_raise():
    edge_index = np.array([[0, 1], [1, 2]])
    weight = np.ones(2)
    with pytest.raises(ValueError, match="symmetric"):
        build_row_plan(edge_index, weight, 3, 1, 1, normalize=True)
    with pytest.raises(ValueError, match="symmetric"):
        build_row_plan(edge_index, weight, 3, 1, 1, normalize=True,
                       indptr=np.array([0, 1, 2, 2]))


def reference_ego_net(csc, seeds, radius, fanout, rng):
    """``(nodes, edge_index)`` with each frontier found by a sort."""
    seeds = sorted_unique(np.asarray(seeds, dtype=np.int64))
    visited = np.zeros(csc.num_nodes, dtype=bool)
    visited[seeds] = True
    layers, src_parts, dst_parts = [seeds], [], []
    frontier = seeds
    for _ in range(radius):
        if frontier.size == 0:
            break
        src, dst = csc.sample_neighbors(frontier, fanout, rng)
        src_parts.append(src)
        dst_parts.append(dst)
        fresh = sorted_unique(src[~visited[src]])
        visited[fresh] = True
        layers.append(fresh)
        frontier = fresh
    nodes = np.concatenate(layers)
    lookup = np.full(csc.num_nodes, -1, dtype=np.int64)
    lookup[nodes] = np.arange(nodes.shape[0])
    src = lookup[np.concatenate(src_parts)] if src_parts else \
        np.zeros(0, dtype=np.int64)
    dst = lookup[np.concatenate(dst_parts)] if dst_parts else src
    m = nodes.shape[0]
    keys = sorted_unique(np.concatenate([src * m + dst, dst * m + src]))
    return nodes, np.stack([keys // m, keys % m])


@settings(max_examples=30, deadline=None)
@given(num_nodes=st.integers(1, 80), num_undirected=st.integers(0, 250),
       radius=st.integers(1, 3), fanout=st.sampled_from([None, 1, 3, 10]),
       self_loops=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_egonet_matches_sorted_frontier_reference(num_nodes, num_undirected,
                                                  radius, fanout,
                                                  self_loops, seed):
    edge_index = random_symmetric_graph(num_nodes, num_undirected, seed)
    if self_loops:
        edge_index = with_self_loops(edge_index, num_nodes, seed)
    csc = CSCGraph.from_edge_index(edge_index, num_nodes)
    seeds = np.random.default_rng(seed).choice(
        num_nodes, size=max(1, num_nodes // 5), replace=False)
    sub = csc.ego_net(seeds, radius, fanout, np.random.default_rng(seed))
    nodes, want_edges = reference_ego_net(csc, seeds, radius, fanout,
                                          np.random.default_rng(seed))
    assert np.array_equal(sub.nodes, nodes)
    assert np.array_equal(sub.edge_index, want_edges)
    # The row pointer is the edge list's CSR, by source.
    assert sub.indptr.shape == (sub.num_nodes + 1,)
    assert np.array_equal(np.diff(sub.indptr), np.bincount(
        sub.edge_index[0], minlength=sub.num_nodes))


def test_subgraph_nbytes_counts_its_csr():
    edge_index = random_symmetric_graph(200, 600, 2)
    sub = CSCGraph.from_edge_index(edge_index, 200).ego_net(
        np.arange(0, 200, 9), 2, 4, np.random.default_rng(2))
    assert sub.indptr.nbytes > 0
    assert sub.nbytes == (sub.nodes.nbytes + sub.edge_index.nbytes
                          + sub.indptr.nbytes)
