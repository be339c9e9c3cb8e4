"""Raw-CSR ego-networks and connectivity against the scipy expressions.

``build_ego_networks`` and ``hyper_graph_connectivity`` call scipy's
sparse kernels on raw arrays.  The matrix-object expressions they
replaced are kept here as oracles: on random graphs with duplicate
edges, self-loops, one-directional edges, isolated nodes or no edges at
all, the raw paths must give the same arrays in the same order, and
the same bits.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core import build_ego_networks
from repro.core.selection import (build_assignment,
                                  hyper_graph_connectivity, select_egos)
from repro.graph import Graph, bfs_distances, normalize_edges
from repro.tensor import Tensor


def scipy_ego_networks(edge_index, num_nodes, radius):
    """The ``csr_matrix`` reachability loop ``build_ego_networks`` ran."""
    src, dst = np.asarray(edge_index, dtype=np.int64)
    ones = np.ones(src.shape[0], dtype=bool)
    adj = sp.csr_matrix((ones, (src, dst)), shape=(num_nodes, num_nodes))
    adj = (adj + adj.T).astype(bool).tocsr()
    adj.setdiag(False)
    adj.eliminate_zeros()
    reach = adj.copy()
    frontier = adj
    for _ in range(radius - 1):
        frontier = (frontier @ adj).astype(bool)
        reach = (reach + frontier).astype(bool)
    reach = reach.tocoo()
    keep = reach.row != reach.col
    return reach.row[keep], reach.col[keep]


def scipy_connectivity(assignment, edge_index, edge_weight):
    """``(S.T @ Â @ S).tocoo()``, the expression of the parent code."""
    n = assignment.num_nodes
    src, dst = edge_index
    loops = np.arange(n, dtype=np.int64)
    a_hat = sp.csr_matrix(
        (np.concatenate([edge_weight, np.ones(n, dtype=edge_weight.dtype)]),
         (np.concatenate([src, loops]), np.concatenate([dst, loops]))),
        shape=(n, n))
    s = sp.csr_matrix((assignment.values.data,
                       (assignment.rows, assignment.cols)),
                      shape=(n, assignment.num_hyper))
    a_k = (s.T @ a_hat @ s).tocoo()
    keep = a_k.row != a_k.col
    return (np.stack([a_k.row[keep], a_k.col[keep]]).astype(np.int64),
            a_k.data[keep].astype(np.float64))


@st.composite
def graphs(draw, max_nodes=24, max_edges=70):
    """``(edge_index, num_nodes)``: duplicates, self-loops and
    one-directional edges allowed; nodes beyond the touched ids are
    isolated; ``num_nodes`` may be 0."""
    n = draw(st.integers(0, max_nodes))
    if n == 0:
        return np.zeros((2, 0), dtype=np.int64), 0
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=max_edges))
    edge_index = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    if draw(st.booleans()):
        edge_index = np.concatenate([edge_index, edge_index[::-1]], axis=1)
    return edge_index, n


@settings(max_examples=150, deadline=None)
@given(graph=graphs(), radius=st.integers(1, 3))
def test_ego_networks_match_scipy_expression(graph, radius):
    edge_index, n = graph
    egos = build_ego_networks(edge_index, n, radius)
    ref_ego, ref_member = scipy_ego_networks(edge_index, n, radius)
    assert egos.ego.dtype == egos.member.dtype == np.int64
    np.testing.assert_array_equal(egos.ego, ref_ego)
    np.testing.assert_array_equal(egos.member, ref_member)


@settings(max_examples=60, deadline=None)
@given(graph=graphs(max_nodes=16, max_edges=40), radius=st.integers(1, 3))
def test_ego_network_pairs_match_bfs(graph, radius):
    edge_index, n = graph
    egos = build_ego_networks(edge_index, n, radius)
    got = set(zip(egos.ego.tolist(), egos.member.tolist()))
    assert len(got) == egos.num_pairs
    g = Graph(edge_index, num_nodes=n)
    want = set()
    for source in range(n):
        dist = bfs_distances(g, source, max_depth=radius)
        want.update((source, int(t)) for t in np.flatnonzero(dist >= 1))
    assert got == want


@st.composite
def connectivity_cases(draw):
    """A graph's ``Â`` edge list and an ``S`` from a real selection.

    The edge list has distinct pairs, optionally symmetric, and
    optionally already carries one self-loop per node, as level-0
    GCN-normalised edges do (so each cell of ``Â`` sums at most two
    terms; see the duplicate-heavy test below)."""
    n = draw(st.integers(1, 24))
    num = draw(st.integers(0, min(60, n * n)))
    cells = np.unique(np.array(draw(st.lists(
        st.integers(0, n * n - 1), min_size=num, max_size=num)),
        dtype=np.int64))
    src, dst = cells // n, cells % n
    keep = src != dst
    edge_index = np.stack([src[keep], dst[keep]])
    symmetric = draw(st.booleans())
    if symmetric:
        keys = np.unique(np.concatenate([edge_index[0] * n + edge_index[1],
                                         edge_index[1] * n + edge_index[0]]))
        edge_index = np.stack([keys // n, keys % n])
    seed = draw(st.integers(0, 2 ** 16))
    weight_dtype = draw(st.sampled_from([np.float32, np.float64]))
    s_dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(seed)
    weight = rng.random(edge_index.shape[1]).astype(weight_dtype)
    if symmetric and draw(st.booleans()):
        edge_index, weight = normalize_edges(
            edge_index, np.ones_like(weight), n)
    radius = draw(st.integers(1, 2))
    egos = build_ego_networks(edge_index, n, radius)
    neighbors = build_ego_networks(edge_index, n, 1)
    selected = select_egos(rng.random(n), neighbors, egos.sizes())
    phi = Tensor(rng.random(egos.num_pairs).astype(s_dtype), dtype=s_dtype)
    return build_assignment(phi, egos, selected), edge_index, weight


@settings(max_examples=150, deadline=None)
@given(case=connectivity_cases())
def test_connectivity_bitwise_equals_scipy(case):
    assignment, edge_index, weight = case
    edges, weights = hyper_graph_connectivity(assignment, edge_index, weight)
    ref_edges, ref_weights = scipy_connectivity(assignment, edge_index,
                                                weight)
    assert edges.dtype == np.int64 and weights.dtype == np.float64
    np.testing.assert_array_equal(edges, ref_edges)
    np.testing.assert_array_equal(weights, ref_weights)


def test_connectivity_with_many_duplicate_edges():
    """Three or more copies of one edge sum left to right in input order.

    scipy sums the same terms, but after an introsort of the row, which
    is not stable on rows of more than 16 entries, so its last bit can
    differ.  The loaders emit distinct, loop-free edges, so their
    normalised edge lists and every pooled level hold at most two terms
    per cell, where the order of a sum does not matter."""
    rng = np.random.default_rng(0)
    n = 12
    edge_index = rng.integers(0, n, (2, 400))
    edge_index = np.concatenate([edge_index, edge_index[::-1]], axis=1)
    weight = rng.random(edge_index.shape[1])
    egos = build_ego_networks(edge_index, n, 1)
    selected = select_egos(rng.random(n), egos, egos.sizes())
    assignment = build_assignment(Tensor(rng.random(egos.num_pairs)), egos,
                                  selected)
    edges, weights = hyper_graph_connectivity(assignment, edge_index, weight)
    ref_edges, ref_weights = scipy_connectivity(assignment, edge_index,
                                                weight)
    np.testing.assert_array_equal(edges, ref_edges)
    np.testing.assert_allclose(weights, ref_weights, rtol=1e-13)
