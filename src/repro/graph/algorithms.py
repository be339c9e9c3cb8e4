"""Classical graph algorithms on :class:`~repro.graph.Graph`.

These back the structural pieces of the paper: λ-hop ego-networks
(Section 3.2), connectivity checks (Proposition 1's premise), and the
coverage analysis of Figure 3.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from .blocks import canonical_csr, csr_add, csr_matmul
from .graph import Graph


def adjacency_lists(graph: Graph) -> List[np.ndarray]:
    """Per-node arrays of out-neighbours (sorted, deduplicated)."""
    order = np.argsort(graph.edge_index[0], kind="stable")
    src = graph.edge_index[0][order]
    dst = graph.edge_index[1][order]
    bounds = np.searchsorted(src, np.arange(graph.num_nodes + 1))
    return [np.unique(dst[bounds[i]:bounds[i + 1]])
            for i in range(graph.num_nodes)]


def reachable_pairs(edge_index: np.ndarray, num_nodes: int,
                    radius: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(source, target)`` pairs with ``1 <= d(source, target) <= radius``
    on the undirected graph, row-major (grouped by ascending source).

    Radius 1 is the canonical CSR of the symmetrised, loop-free edges, so
    targets come out ascending.  Each further hop is one boolean product
    and one union in the order ``reach + frontier @ adj`` on
    ``csr_matrix`` objects ran them, so targets come out in those
    kernels' accumulation order.  Node ids outside ``[0, num_nodes)``
    raise ``ValueError``.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    n = int(num_nodes)
    src, dst = np.asarray(edge_index, dtype=np.int64)
    loop_free = src != dst
    src, dst = src[loop_free], dst[loop_free]
    adj = canonical_csr(np.concatenate([src, dst]), np.concatenate([dst, src]),
                        np.ones(2 * src.shape[0], dtype=bool), n, n)
    reach = frontier = adj
    for _ in range(radius - 1):
        frontier = csr_matmul(frontier, adj, n)
        reach = csr_add(reach, frontier, n)
    source, target = reach.row, reach.indices
    keep = source != target
    return source[keep], target[keep]


def k_hop_reachability(graph: Graph, k: int) -> sp.csr_matrix:
    """Boolean CSR matrix R with ``R[i, j] = 1`` iff ``1 <= d(i, j) <= k``.

    Built from :func:`reachable_pairs`, the loop behind the ego-networks.
    """
    n = graph.num_nodes
    source, target = reachable_pairs(graph.edge_index, n, k)
    return sp.csr_matrix((np.ones(source.shape[0], dtype=bool),
                          (source, target)), shape=(n, n))


def bfs_distances(graph: Graph, source: int, max_depth: int | None = None) -> np.ndarray:
    """Unweighted shortest-path distances from ``source`` (-1 = unreachable)."""
    neighbours = adjacency_lists(graph.to_undirected())
    dist = -np.ones(graph.num_nodes, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if max_depth is not None and dist[node] >= max_depth:
            continue
        for nxt in neighbours[node]:
            if dist[nxt] < 0:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def connected_components(graph: Graph) -> np.ndarray:
    """Component label per node (labels are 0..C-1 in discovery order)."""
    adj = graph.adjacency(weighted=False)
    n_components, labels = sp.csgraph.connected_components(
        adj, directed=False, return_labels=True)
    del n_components
    return labels.astype(np.int64)


def is_connected(graph: Graph) -> bool:
    """True when the undirected graph has a single connected component."""
    if graph.num_nodes == 0:
        return True
    return int(connected_components(graph).max()) == 0


def largest_component(graph: Graph) -> Graph:
    """Induced subgraph on the largest connected component."""
    labels = connected_components(graph)
    counts = np.bincount(labels)
    keep = np.flatnonzero(labels == counts.argmax())
    sub, _ = graph.subgraph(keep)
    return sub


def triangle_count(graph: Graph) -> int:
    """Total number of triangles (used by dataset-statistics sanity checks)."""
    adj = graph.adjacency(weighted=False)
    adj = (adj + adj.T).astype(bool).astype(np.int64)
    adj.setdiag(0)
    adj.eliminate_zeros()
    return int((adj @ adj).multiply(adj).sum() // 6)
