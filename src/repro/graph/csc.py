"""Compact CSC adjacency with sampled-neighborhood extraction.

The sampled minibatch pipeline (DESIGN.md "Sampled minibatch training")
never materialises anything graph-sized per step: a :class:`CSCGraph` is
built once per graph — two flat arrays, ``indptr`` (n+1) and ``indices``
(E), in the spirit of graphbolt's ``csc_sampling_graph`` — and every
minibatch touches only the slices behind its seed nodes.

Layout: ``indices[indptr[v]:indptr[v+1]]`` are the *sources* of edges
whose destination is ``v``, sorted ascending.  All loaders in this library
produce symmetric edge lists, so these double as out-neighbours; the
sampler semantics below are defined in terms of in-edges (messages are
*pulled* onto a node), matching the message-passing convention.

Two operations drive training:

* :meth:`CSCGraph.sample_neighbors` — per-node fixed-fanout uniform
  neighbour draws without replacement, exact when the degree is at most
  the fanout.  The draw is batched over the whole frontier: every node's
  CSC slice is gathered in one pass, each candidate edge of a node whose
  degree exceeds the fanout gets one uniform random key, and sorting by
  (node, key) keeps the ``fanout`` smallest keys per node;
* :meth:`CSCGraph.ego_net` — radius-λ sampled ego-net extraction around a
  seed set: λ rounds of frontier expansion whose union, relabelled to
  local ids with seeds first and symmetrised, is a subgraph every existing
  kernel (GCN normalisation, segment plans, ego-structure caches) consumes
  unchanged.

Determinism: both operations consume only the caller's RNG — one
``rng.random`` call per hop, none when no node has more neighbours than
the fanout — so the same generator state always yields the
bitwise-identical subgraph (property-tested), which is what lets the
sampled trainer key its RNG streams per (seed, epoch, batch), the same
keyed-stream discipline the sharded trainer follows.  The batched draw
consumes the stream differently from the per-node ``choice`` loop it
replaced, so seeded samples differ from that loop's while following the
same law.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import Graph

__all__ = ["CSCGraph", "SampledSubgraph", "csc_cache_stats",
           "sorted_unique"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for integer keys: one sort and a neighbour
    compare.

    NumPy 2.4 answers ``np.unique`` on integers through a hash table:
    on 330k random int64 keys it took ~170 ms against ~4 ms for this
    sort (2-core x86 host).  The output (sorted, flattened, distinct) is
    the same.  Not for floats: NaNs would not collapse.
    """
    out = np.sort(values, axis=None)
    keep = np.ones(out.size, dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


@dataclass
class SampledSubgraph:
    """One sampled radius-λ ego-net minibatch.

    ``nodes`` holds original node ids — the ``num_seeds`` seed nodes
    first, then each hop's frontier in discovery order — and
    ``edge_index`` is the sampled edge set relabelled to local ids
    (``0 .. len(nodes)-1``) and symmetrised, so it feeds straight into
    the layers' message-passing kernels.  Its edges are distinct and
    sorted by (source, destination); ``indptr`` is their row pointer, so
    node ``v``'s edges are columns ``indptr[v]:indptr[v+1]``.  By
    symmetry their destinations are also ``v``'s in-neighbours, making
    ``(indptr, edge_index[1])`` the by-destination CSR a row plan reads.
    """

    nodes: np.ndarray
    edge_index: np.ndarray
    num_seeds: int
    indptr: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    @property
    def nbytes(self) -> int:
        """Bytes held by the node ids, the edge list and its row
        pointer."""
        return int(self.nodes.nbytes + self.edge_index.nbytes
                   + self.indptr.nbytes)

    def seed_mask(self) -> np.ndarray:
        """Boolean mask over local nodes marking the seed rows."""
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[:self.num_seeds] = True
        return mask

    def to_graph(self, x: Optional[np.ndarray] = None,
                 y: Optional[np.ndarray] = None) -> Graph:
        """Materialise the minibatch as a :class:`Graph`.

        ``x``/``y`` are *full-graph* arrays; the rows behind this
        subgraph's nodes are gathered here, so the caller never slices
        graph-sized data itself.
        """
        sub_x = None if x is None else x[self.nodes]
        sub_y = None if y is None else np.asarray(y)[self.nodes]
        return Graph(self.edge_index, x=sub_x, y=sub_y,
                     num_nodes=self.num_nodes)


def _segment_positions(starts: np.ndarray,
                       lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` runs, in order."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)


class CSCGraph:
    """Compressed sparse column adjacency for neighbour sampling."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 num_nodes: int):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.num_nodes = int(num_nodes)
        if self.indptr.shape != (self.num_nodes + 1,):
            raise ValueError("indptr must have num_nodes + 1 entries")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr does not span indices")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_index(cls, edge_index: np.ndarray,
                        num_nodes: int) -> "CSCGraph":
        """Build from a ``(2, E)`` COO edge list (kept as given, directed)."""
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.size == 0:
            return cls(np.zeros(num_nodes + 1, dtype=np.int64),
                       np.zeros(0, dtype=np.int64), num_nodes)
        src, dst = edge_index
        # Column-major order with sorted source lists per column: a
        # deterministic canonical layout (tests rely on it).
        order = np.lexsort((src, dst))
        indices = src[order]
        counts = np.bincount(dst, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, indices, num_nodes)

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSCGraph":
        """Identity-cached build: the same :class:`Graph` object reuses
        its CSC structure across trainer/eval/bench calls."""
        entry = _CSC_CACHE.get(id(graph))
        if entry is not None:
            ref, csc = entry
            if ref() is graph:
                _CSC_STATS["hits"] += 1
                return csc
        _CSC_STATS["misses"] += 1
        csc = cls.from_edge_index(graph.edge_index, graph.num_nodes)
        key = id(graph)
        _CSC_CACHE[key] = (weakref.ref(
            graph, lambda _, key=key: _CSC_CACHE.pop(key, None)), csc)
        return csc

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0])

    def degrees(self) -> np.ndarray:
        """In-degree of every node."""
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted in-neighbours of ``node`` (a view, do not mutate)."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_neighbors(self, nodes: np.ndarray, fanout: Optional[int],
                         rng: np.random.Generator,
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node neighbour draws: ``(src, dst)`` in original ids.

        Every node in ``nodes`` contributes ``min(degree, fanout)``
        distinct in-neighbours (all of them when ``fanout`` is ``None``),
        drawn uniformly without replacement.  Edges come out grouped by
        node in the order given, each group in CSC (ascending source)
        order.

        Only nodes with more neighbours than ``fanout`` draw: one
        ``rng.random`` key per candidate edge, all in a single call, and
        sorting by (node, key) keeps each node's ``fanout`` smallest keys.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.indptr[nodes]
        degrees = self.indptr[nodes + 1] - starts
        src = self.indices[_segment_positions(starts, degrees)]
        dst = np.repeat(nodes, degrees)
        if fanout is None:
            return src, dst
        heavy = degrees > fanout
        if not heavy.any():
            return src, dst
        # Candidates: the gathered edges of nodes that must choose.
        heavy_degrees = degrees[heavy]
        candidates = np.flatnonzero(np.repeat(heavy, degrees))
        node_of = np.repeat(np.arange(heavy_degrees.size), heavy_degrees)
        keys = rng.random(candidates.size)
        # Order candidates by (node, key) with one integer sort: the keys'
        # global ranks are distinct, so node * count + rank is an exact,
        # tie-free composite (np.lexsort on float keys is ~10x slower).
        by_key = np.argsort(keys)
        key_rank = np.empty_like(by_key)
        key_rank[by_key] = np.arange(by_key.size)
        order = np.argsort(node_of * by_key.size + key_rank)
        # node_of is non-decreasing, so that sort leaves each node's run
        # in place and a candidate's place in its run is its offset in it.
        run_start = np.cumsum(heavy_degrees) - heavy_degrees
        place = np.arange(candidates.size) - run_start[node_of]
        keep = np.ones(src.size, dtype=bool)
        keep[candidates[order[place >= fanout]]] = False
        return src[keep], dst[keep]

    def ego_net(self, seeds: np.ndarray, radius: int,
                fanout: Optional[int],
                rng: np.random.Generator) -> SampledSubgraph:
        """Sampled radius-``radius`` ego-net around ``seeds``.

        ``radius`` rounds of :meth:`sample_neighbors` starting from the
        (unique) seed set; each round's newly discovered nodes form the
        next frontier.  With ``fanout=None`` the result is exact: nodes
        are all vertices within ``radius`` hops of a seed, and edges are
        every edge incident to a node within ``radius - 1`` hops (both
        directions).  The returned edge set is deduplicated and
        symmetrised so GCN normalisation's symmetry contract holds, and
        comes sorted by (source, destination) with its row pointer.
        Each frontier is found by marking the hop's unvisited sources and
        reading the marks off in order, not by a sort.
        """
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        seeds = sorted_unique(np.asarray(seeds, dtype=np.int64))
        if seeds.size and (seeds[0] < 0 or seeds[-1] >= self.num_nodes):
            raise IndexError("seed ids out of range")
        visited = np.zeros(self.num_nodes, dtype=bool)
        visited[seeds] = True
        fresh_mark = np.zeros(self.num_nodes, dtype=bool)
        layers = [seeds]
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        frontier = seeds
        for _ in range(radius):
            if frontier.size == 0:
                break
            src, dst = self.sample_neighbors(frontier, fanout, rng)
            src_parts.append(src)
            dst_parts.append(dst)
            # The fresh ids, ascending: marked, then read off in order.
            fresh_mark[src[~visited[src]]] = True
            fresh = np.flatnonzero(fresh_mark)
            fresh_mark[fresh] = False
            visited[fresh] = True
            layers.append(fresh)
            frontier = fresh
        nodes = np.concatenate(layers) if layers else seeds
        m = nodes.shape[0]
        lookup = np.full(self.num_nodes, -1, dtype=np.int64)
        lookup[nodes] = np.arange(m)
        if src_parts:
            src = lookup[np.concatenate(src_parts)]
            dst = lookup[np.concatenate(dst_parts)]
            # Symmetrise + dedupe through one encoded key pass.
            keys = sorted_unique(np.concatenate([src * m + dst,
                                                 dst * m + src]))
            edge_index = np.stack([keys // m, keys % m])
        else:
            edge_index = np.zeros((2, 0), dtype=np.int64)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_index[0], minlength=m), out=indptr[1:])
        return SampledSubgraph(nodes=nodes, edge_index=edge_index,
                               num_seeds=int(seeds.shape[0]),
                               indptr=indptr)


#: Identity-keyed CSC structures (weakly held) + hit/miss counters,
#: surfaced through the node trainer's ``cache_stats(model)`` report.
_CSC_CACHE: Dict[int, Tuple[weakref.ref, CSCGraph]] = {}
_CSC_STATS = {"hits": 0, "misses": 0}


def csc_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the identity-keyed CSC structure cache."""
    return dict(_CSC_STATS, entries=len(_CSC_CACHE))
