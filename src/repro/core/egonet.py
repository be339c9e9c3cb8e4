"""Ego-network formation (Section 3.2, Figure 1-(b)-(i)).

Every node ``v_i`` owns an ego-network ``c_λ(v_i) = {v_j : d(v_i, v_j) ≤ λ}``.
For the fitness computation and the assignment matrix we only ever need the
*pair list* of (ego, member) relations, so that is the representation used:
flat arrays ``ego`` / ``member`` with one entry per pair, excluding the
trivial (i, i) pair (the ego itself is handled explicitly where needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graph.algorithms import reachable_pairs


@dataclass
class EgoNetworks:
    """Pair-list view of all λ-hop ego-networks of a graph.

    Attributes
    ----------
    ego, member:
        ``(P,)`` arrays: ``member[p] ∈ N_{ego[p]}^λ`` (ego ≠ member),
        row-major: ``ego`` is non-decreasing.
    num_nodes:
        Node count of the underlying graph.
    radius:
        The λ used to build the networks.
    """

    ego: np.ndarray
    member: np.ndarray
    num_nodes: int
    radius: int

    @property
    def num_pairs(self) -> int:
        return self.ego.shape[0]

    def sizes(self) -> np.ndarray:
        """``|N_i^λ|`` for every node (0 for isolated nodes)."""
        return np.bincount(self.ego, minlength=self.num_nodes)

    def members_of(self, node: int) -> np.ndarray:
        """Members of ``c_λ(node)`` excluding the ego itself."""
        lo, hi = np.searchsorted(self.ego, [node, node + 1])
        return self.member[lo:hi]


def build_ego_networks(edge_index: np.ndarray, num_nodes: int,
                       radius: int = 1) -> EgoNetworks:
    """Construct all λ-hop ego-networks from an edge list.

    Distances follow the *undirected* graph (the paper's graphs are all
    undirected); see :func:`~repro.graph.algorithms.reachable_pairs`.
    """
    ego, member = reachable_pairs(edge_index, num_nodes, radius)
    return EgoNetworks(ego=ego, member=member, num_nodes=num_nodes,
                       radius=radius)


def one_hop_neighbors(edge_index: np.ndarray, num_nodes: int) -> EgoNetworks:
    """1-hop neighbour pairs (the ``N_i^1`` of the selection rule)."""
    return build_ego_networks(edge_index, num_nodes, radius=1)


def compose_ego_networks(parts: "Sequence[EgoNetworks]",
                         offsets: np.ndarray,
                         num_nodes: int) -> EgoNetworks:
    """Ego-networks of a block-diagonal union from its members'.

    λ-hop reachability never crosses connected components, so the pair
    list of a batch is exactly the union of the per-graph pair lists with
    node ids shifted by each graph's node offset.  The concatenation order
    (graphs in batch order; within a graph, the part's own order, which
    :func:`build_ego_networks` emits row-major, members sorted at radius 1
    and in product order beyond) makes the result identical to running
    :func:`build_ego_networks` on the collated edge list — the property
    the composition tests pin down.
    """
    if not parts:
        raise ValueError("cannot compose zero ego-network parts")
    radius = parts[0].radius
    if any(p.radius != radius for p in parts):
        raise ValueError("all parts must share the same radius")
    ego = np.concatenate([p.ego + off for p, off in zip(parts, offsets)])
    member = np.concatenate([p.member + off
                             for p, off in zip(parts, offsets)])
    return EgoNetworks(ego=ego, member=member, num_nodes=int(num_nodes),
                       radius=radius)
