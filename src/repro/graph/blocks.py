"""Raw CSR arrays, and per-layer row plans for output-pruned message passing.

:func:`canonical_csr`, :func:`csr_matmul` and :func:`csr_add` run scipy's
``_sparsetools`` kernels on plain arrays, with no matrix object per call,
and return the arrays the scipy expression holds.  They back the
message-passing operators, λ-hop reachability and ``S_kᵀ Â S_k``.

A sampled minibatch's loss reads only its seed rows, yet a plain L-layer
stack computes every layer on every subgraph node.  A :class:`RowPlan`
walks the layers backwards from the rows the caller reads:

* the last layer's output rows are ``0 .. num_outputs-1`` (the seeds,
  which :meth:`CSCGraph.ego_net` numbers first);
* each layer's input rows are its output rows plus their in-neighbours;
* each layer's :class:`MessageFlowBlock` is the operator restricted to
  its output rows, with columns renumbered to the input rows.

This is the message-flow-block shape of DGL/GraphStorm's
``forward(blocks, ...)``.  The operator is read once per subgraph in
scipy's canonical CSR layout — rows by destination, sources ascending
within a row, duplicates summed — so every kept row's sum runs over the
same terms in the same order as the full-row product, and each pruned
aggregation row is bitwise equal to the full one.  A sampled ego-net's
edge list already is that layout (its keys are sorted and symmetric), so
its plan sorts nothing.  For GCN the plan also normalises: degrees over
the whole subgraph, exactly as before, but weights only for the entries
a block keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..tensor._segment_plans import _sptools
from ..tensor.precision import ACCUM_DTYPE
from .csc import _segment_positions
from .normalize import gcn_weight_dtype, inverse_sqrt, out_degree

__all__ = ["CSR", "MessageFlowBlock", "RowPlan", "build_row_plan",
           "canonical_csr", "csr_add", "csr_matmul"]


class CSR(NamedTuple):
    """Raw ``(indptr, indices, data)`` of a compressed sparse row matrix,
    int64 indices; the column count travels as an argument."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def row(self) -> np.ndarray:
        """Row id of every stored entry (the COO row array)."""
        return np.repeat(np.arange(self.num_rows), np.diff(self.indptr))


def canonical_csr(src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
                  num_out: int, num_in: int) -> CSR:
    """``(indptr, indices, data)`` of ``y[dst] += weight * x[src]``, an
    ``(num_out, num_in)`` operator.

    Rows are destinations, each row's sources ascending, duplicate
    ``(dst, src)`` pairs summed left to right in input order: the arrays
    ``scipy.sparse.csr_matrix((weight, (dst, src)))`` holds (its row sort
    is unstable past 16 entries, so three or more duplicates there may
    differ in the last bit).  Two counting sorts (by source, then stably
    by destination) and scipy's ``csr_sum_duplicates`` do it in O(E),
    where the scipy object sorts every row.  Ids out of range raise
    ``ValueError`` (the kernels would write out of bounds).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight)
    for ids, bound in ((src, num_in), (dst, num_out)):
        if ids.size and (ids.min() < 0 or ids.max() >= bound):
            raise ValueError(f"node ids must lie in [0, {bound}); got "
                             f"[{ids.min()}, {ids.max()}]")
    num_edges = src.shape[0]
    indptr = np.zeros(num_out + 1, dtype=np.int64)
    by_src = np.empty(num_in + 1, dtype=np.int64)
    src_dst = np.empty(num_edges, dtype=np.int64)
    src_w = np.empty(num_edges, dtype=weight.dtype)
    _sptools.coo_tocsr(num_in, num_out, num_edges, src, dst, weight,
                       by_src, src_dst, src_w)
    indices = np.empty(num_edges, dtype=np.int64)
    data = np.empty(num_edges, dtype=weight.dtype)
    _sptools.csr_tocsc(num_in, num_out, by_src, src_dst, src_w,
                       indptr, indices, data)
    _sptools.csr_sum_duplicates(num_out, num_in, indptr, indices, data)
    return CSR(indptr, indices[:indptr[-1]], data[:indptr[-1]])


def _combine(kernel, a: CSR, b: CSR, num_cols: int, max_nnz: int) -> CSR:
    indptr = np.empty(a.num_rows + 1, dtype=np.int64)
    indices = np.empty(max_nnz, dtype=np.int64)
    data = np.empty(max_nnz, dtype=np.result_type(a.data, b.data))
    kernel(a.num_rows, num_cols, *a, *b, indptr, indices, data)
    return CSR(indptr, indices[:indptr[-1]], data[:indptr[-1]])


def csr_matmul(a: CSR, b: CSR, num_cols: int) -> CSR:
    """``a @ b`` for a ``b`` of ``num_cols`` columns (scipy's
    ``csr_matmat``): each output row in the kernel's accumulation order,
    not sorted, exact zeros dropped — the arrays a ``csr_matrix`` product
    of the same operands holds."""
    return _combine(_sptools.csr_matmat, a, b, num_cols,
                    _sptools.csr_matmat_maxnnz(a.num_rows, num_cols,
                                               a.indptr, a.indices,
                                               b.indptr, b.indices))


def csr_add(a: CSR, b: CSR, num_cols: int) -> CSR:
    """``a + b`` (scipy's ``csr_plus_csr``): a sorted merge when both are
    canonical, else the kernel's accumulation order; zero sums dropped."""
    return _combine(_sptools.csr_plus_csr, a, b, num_cols,
                    a.indices.shape[0] + b.indices.shape[0])


@dataclass(frozen=True)
class MessageFlowBlock:
    """One layer's operator restricted to the rows a later layer reads.

    Output row ``i`` is subgraph node ``rows[i]``; input row ``j`` is row
    ``j`` of the previous layer's output (or of the plan's input).  The
    CSR ``(indptr, indices, data)`` maps input rows to output rows, and
    ``self_index[i]`` is output row ``i``'s own input row.
    """

    rows: np.ndarray
    self_index: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    num_in: int

    @property
    def num_out(self) -> int:
        return int(self.rows.shape[0])

    @property
    def edge_index(self) -> np.ndarray:
        """``(2, E)`` block-local edges: input row → output row."""
        dst = np.repeat(np.arange(self.num_out), np.diff(self.indptr))
        return np.stack([self.indices, dst])

    @property
    def nbytes(self) -> int:
        return int(sum(a.nbytes for a in (self.rows, self.self_index,
                                          self.indptr, self.indices,
                                          self.data)))


@dataclass(frozen=True)
class RowPlan:
    """Per-layer blocks of an L-layer stack, first layer first.

    ``input_rows`` are the subgraph nodes the first layer reads; the last
    block's output rows are the rows the caller asked for.
    """

    input_rows: np.ndarray
    blocks: Tuple[MessageFlowBlock, ...]

    @property
    def nbytes(self) -> int:
        return int(self.input_rows.nbytes
                   + sum(block.nbytes for block in self.blocks))


def build_row_plan(edge_index: np.ndarray, edge_weight: np.ndarray,
                   num_nodes: int, num_outputs: int, num_layers: int,
                   normalize: bool = False,
                   indptr: Optional[np.ndarray] = None) -> RowPlan:
    """Plan ``num_layers`` aggregations over ``edge_index`` whose last
    output is rows ``0 .. num_outputs-1``.

    Without ``normalize``, ``edge_weight`` is the operator as the layers
    consume it (raw for mean or attention aggregation, or already
    normalised).  With it, ``edge_weight`` is raw and the plan applies
    GCN's renormalisation ``D̂^-½ (A + I) D̂^-½``: the self-loops join
    every row, the degrees are the whole graph's (as
    :func:`~repro.graph.normalize_edges` sums them, validation
    included), and weights are formed only for the entries a block
    keeps.  Duplicate edges are summed before they are normalised, so
    their weights match ``normalize_edges``'s up to rounding; without
    duplicates they match bit for bit.

    ``indptr`` is the row pointer of a duplicate-free, symmetric edge
    list sorted by (source, destination), with symmetric weights, such
    as :meth:`CSCGraph.ego_net` returns (``SampledSubgraph.indptr``).
    Row ``v``'s destinations are then its sources too, ascending, so the
    edge list already is the canonical CSR and is not sorted again.
    Rows are kept in ascending subgraph order.
    """
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    if not 0 <= num_outputs <= num_nodes:
        raise ValueError(f"num_outputs must be in [0, {num_nodes}], "
                         f"got {num_outputs}")
    edge_index = np.asarray(edge_index, dtype=np.int64)
    weight = np.asarray(edge_weight)
    gcn = None
    if normalize:
        out_dtype = gcn_weight_dtype(weight)
        weight = weight.astype(ACCUM_DTYPE, copy=False)
        degree = out_degree(edge_index, weight, num_nodes)
        degree[:num_nodes] += 1.0       # the self-loops, summed last
        gcn = (inverse_sqrt(degree), out_dtype)
    if indptr is None:
        indptr, indices, weight = canonical_csr(
            edge_index[0], edge_index[1], weight, num_nodes, num_nodes)
    else:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = edge_index[1]
    lookup = np.empty(num_nodes, dtype=np.int64)
    mark = np.zeros(num_nodes, dtype=bool)
    rows = np.arange(num_outputs, dtype=np.int64)
    blocks = []
    for _ in range(num_layers):
        starts = indptr[rows]
        counts = indptr[rows + 1] - starts
        positions = _segment_positions(starts, counts)
        sources = indices[positions]
        mark[rows] = True
        mark[sources] = True
        in_rows = np.flatnonzero(mark)
        mark[in_rows] = False
        if gcn is None:
            data = weight[positions]
        else:
            sources, data, counts = _gcn_rows(rows, counts, sources,
                                              weight[positions], *gcn)
        lookup[in_rows] = np.arange(in_rows.shape[0])
        block_indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=block_indptr[1:])
        blocks.append(MessageFlowBlock(
            rows=rows, self_index=lookup[rows], indptr=block_indptr,
            indices=lookup[sources], data=data,
            num_in=int(in_rows.shape[0])))
        rows = in_rows
    return RowPlan(input_rows=rows, blocks=tuple(reversed(blocks)))


def _gcn_rows(rows: np.ndarray, counts: np.ndarray, sources: np.ndarray,
              weight: np.ndarray, inv_sqrt: np.ndarray, out_dtype: np.dtype,
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``rows`` of ``D̂^-½ (A + I) D̂^-½``, as ``normalize_edges``
    and the canonical CSR of its output hold them.

    ``sources``/``weight`` are the rows' entries of ``A`` (``counts`` per
    row, each row's sources ascending).  Each row gains its unit
    self-loop in sorted place; a row that already holds one keeps one
    entry, the loop's normalised weight summed onto the edge's, as
    duplicates are.  Returns the rows' sources, weights and counts.
    """
    targets = np.repeat(rows, counts)
    data = (weight * inv_sqrt[sources]
            * inv_sqrt[targets]).astype(out_dtype, copy=False)
    loop = inv_sqrt[rows]
    loop = (loop * loop).astype(out_dtype)
    # A row's loop goes after its sources below the row id, where its
    # own entry is, if it has one.
    ends = np.cumsum(counts)
    below = np.zeros(sources.shape[0] + 1, dtype=np.int64)
    np.cumsum(sources < targets, out=below[1:])
    at = below[ends] - below[ends - counts]
    own = at < counts
    own[own] = sources[(ends - counts + at)[own]] == rows[own]
    counts = counts + ~own
    ends = np.cumsum(counts)
    at += ends - counts
    added = at[~own]
    is_edge = np.ones(ends[-1] if ends.size else 0, dtype=bool)
    is_edge[added] = False
    edges = np.flatnonzero(is_edge)
    out_sources = np.empty(is_edge.shape[0], dtype=np.int64)
    out_sources[edges] = sources
    out_sources[added] = rows[~own]
    out_data = np.empty(is_edge.shape[0], dtype=out_dtype)
    out_data[edges] = data
    out_data[added] = loop[~own]
    out_data[at[own]] += loop[own]
    return out_sources, out_data, counts
