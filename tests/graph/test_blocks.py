"""Row plans: canonical CSR layout and per-layer row sets vs references."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.graph import CSCGraph, build_row_plan, normalize_edges
from repro.graph.blocks import CSR, canonical_csr, csr_add, csr_matmul

from .test_csc import random_symmetric_graph


@settings(max_examples=60, deadline=None)
@given(num_out=st.integers(1, 30), num_in=st.integers(1, 30),
       num_edges=st.integers(0, 120), seed=st.integers(0, 2 ** 16))
def test_canonical_csr_matches_scipy_layout(num_out, num_in, num_edges,
                                            seed):
    rng = np.random.default_rng(seed)
    cells = np.unique(rng.integers(0, num_out * num_in, num_edges))
    # Each cell at most twice (an edge plus an added self-loop is the
    # case GCN normalisation makes): a two-term sum has one rounding,
    # whatever order scipy's unstable row sort leaves it in.
    twice = cells[rng.random(cells.size) < 0.3]
    keys = rng.permutation(np.concatenate([cells, twice]))
    dst, src = keys // num_in, keys % num_in
    weight = rng.random(keys.size).astype(np.float32)
    indptr, indices, data = canonical_csr(src, dst, weight, num_out, num_in)
    ref = sp.csr_matrix((weight, (dst, src)), shape=(num_out, num_in))
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    assert data.dtype == np.float32
    assert np.array_equal(data, ref.data)


def test_canonical_csr_sums_many_duplicates():
    rng = np.random.default_rng(0)
    src = rng.integers(0, 3, 200)
    dst = rng.integers(0, 2, 200)
    weight = rng.random(200)
    indptr, indices, data = canonical_csr(src, dst, weight, 2, 3)
    ref = sp.csr_matrix((weight, (dst, src)), shape=(2, 3))
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    np.testing.assert_allclose(data, ref.data, rtol=1e-12)


@pytest.mark.parametrize("src, dst", [
    ([0, -1], [1, 0]), ([0, 3], [1, 0]),      # source outside [0, 3)
    ([0, 1], [-2, 0]), ([0, 1], [1, 2]),      # destination outside [0, 2)
])
def test_canonical_csr_rejects_out_of_range_ids(src, dst):
    with pytest.raises(ValueError, match="ids must lie in"):
        canonical_csr(np.array(src), np.array(dst), np.ones(2), 2, 3)


def _scipy_arrays(m):
    return CSR(m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data)


def _random_csr(rng, rows, cols, nnz, dtype, canonical):
    """A random scipy CSR matrix; a non-canonical one has each row's
    entries shuffled, as a product's output rows are."""
    m = sp.random(rows, cols, density=min(1.0, nnz / (rows * cols)),
                  format="csr", dtype=dtype, random_state=rng)
    if not canonical:
        for i in range(rows):
            lo, hi = m.indptr[i], m.indptr[i + 1]
            order = lo + rng.permutation(hi - lo)
            m.indices[lo:hi] = m.indices[order]
            m.data[lo:hi] = m.data[order]
        m.has_sorted_indices = False
        m.has_canonical_format = False
    return m


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 12), inner=st.integers(1, 12),
       cols=st.integers(1, 12), nnz=st.integers(0, 60),
       canonical=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_raw_kernels_match_scipy_objects(rows, inner, cols, nnz, canonical,
                                         seed):
    rng = np.random.default_rng(seed)
    a = _random_csr(rng, rows, inner, nnz, np.float32, canonical)
    b = _random_csr(rng, inner, cols, nnz, np.float64, canonical)
    c = _random_csr(rng, rows, inner, nnz, np.float64, canonical)
    cases = [
        (csr_matmul(_scipy_arrays(a), _scipy_arrays(b), cols), a @ b),
        (csr_add(_scipy_arrays(a), _scipy_arrays(c), inner), a + c),
    ]
    for got, ref in cases:
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        assert got.data.dtype == ref.data.dtype
        np.testing.assert_array_equal(got.data, ref.data)


def brute_plan_rows(edge_index, num_nodes, num_outputs, num_layers):
    """Input rows of every layer, last layer first (set reference)."""
    rows = set(range(num_outputs))
    out = [sorted(rows)]
    for _ in range(num_layers):
        rows = rows | {int(s) for s, d in edge_index.T if int(d) in rows}
        out.append(sorted(rows))
    return out


@settings(max_examples=40, deadline=None)
@given(num_nodes=st.integers(1, 40), num_undirected=st.integers(0, 80),
       num_layers=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_plan_rows_and_blocks_match_dense_reference(num_nodes,
                                                    num_undirected,
                                                    num_layers, seed):
    edge_index = random_symmetric_graph(num_nodes, num_undirected, seed)
    num_outputs = int(np.random.default_rng(seed).integers(0, num_nodes + 1))
    ones = np.ones(edge_index.shape[1], dtype=np.float32)
    norm_index, norm_weight = normalize_edges(edge_index, ones, num_nodes)
    plan = build_row_plan(norm_index, norm_weight, num_nodes, num_outputs,
                          num_layers)
    assert len(plan.blocks) == num_layers
    # Self-loops make every row its own in-neighbour, so the reference's
    # row sets need only the raw edges.
    expect = brute_plan_rows(edge_index, num_nodes, num_outputs, num_layers)
    dense = np.zeros((num_nodes, num_nodes), dtype=np.float32)
    np.add.at(dense, (norm_index[1], norm_index[0]), norm_weight)
    in_rows = plan.input_rows
    assert in_rows.tolist() == expect[-1]
    for depth, block in enumerate(plan.blocks):
        out_rows = expect[num_layers - depth - 1]
        assert block.rows.tolist() == out_rows
        assert block.num_in == len(in_rows)
        assert np.array_equal(in_rows[block.self_index], block.rows)
        got = sp.csr_matrix((block.data, block.indices, block.indptr),
                            shape=(block.num_out, block.num_in)).toarray()
        assert np.array_equal(got, dense[np.ix_(block.rows, in_rows)])
        in_rows = block.rows
    assert plan.blocks[-1].rows.tolist() == list(range(num_outputs))


def test_plan_from_sampled_egonet_keeps_seed_rows_last():
    edge_index = random_symmetric_graph(300, 900, seed=3)
    csc = CSCGraph.from_edge_index(edge_index, 300)
    sub = csc.ego_net(np.arange(0, 300, 7), radius=2, fanout=4,
                      rng=np.random.default_rng(0))
    plan = build_row_plan(sub.edge_index,
                          np.ones(sub.num_edges, dtype=np.float32),
                          sub.num_nodes, sub.num_seeds, num_layers=2)
    last = plan.blocks[-1]
    assert last.rows.tolist() == list(range(sub.num_seeds))
    # Layer 2 reads only the seeds' neighbourhood, a strict subset here.
    assert plan.blocks[0].num_out < sub.num_nodes
    assert plan.nbytes == plan.input_rows.nbytes + sum(
        b.rows.nbytes + b.self_index.nbytes + b.indptr.nbytes
        + b.indices.nbytes + b.data.nbytes for b in plan.blocks)


def test_plan_rejects_bad_sizes():
    edge_index = np.zeros((2, 0), dtype=np.int64)
    weight = np.zeros(0, dtype=np.float32)
    with pytest.raises(ValueError, match="num_layers"):
        build_row_plan(edge_index, weight, 3, 1, num_layers=0)
    with pytest.raises(ValueError, match="num_outputs"):
        build_row_plan(edge_index, weight, 3, 4, num_layers=1)
