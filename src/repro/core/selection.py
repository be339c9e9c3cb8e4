"""Adaptive ego-network selection and the assignment matrix S_k (Section 3.2).

Selection rule: ``N̂_p = {v_i : φ_i > φ_j  ∀ v_j ∈ N_i^1}`` — an ego is
selected when its fitness is a strict local maximum over its 1-hop
neighbours.  Proposition 1 guarantees at least one selection on a connected
graph with non-identical scores; to keep the guarantee under exact ties we
break ties deterministically by node id (documented deviation, tested in
``tests/core/test_selection.py``).

Nodes absorbed by no selected ego-network are *retained* as singleton
hyper-nodes (``N̂_r``), so no node information is dropped — the property the
paper contrasts with top-k pooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..graph.blocks import canonical_csr, csr_matmul
from ..tensor import ACCUM_DTYPE, Tensor, concat
from .egonet import EgoNetworks


@dataclass
class Assignment:
    """Sparse weighted hyper-node formation matrix ``S_k ∈ R^{n × m}``.

    ``rows``/``cols``/``values`` are a COO triplet list: ``rows`` indexes
    nodes of level k-1, ``cols`` hyper-nodes of level k, and ``values`` is a
    *tensor* so gradients flow through the fitness scores it contains.

    Column layout: the first ``len(selected)`` columns are selected
    ego-networks (in ``selected`` order), the rest are retained nodes (in
    ``retained`` order).
    """

    rows: np.ndarray
    cols: np.ndarray
    values: Tensor
    num_nodes: int
    num_hyper: int
    selected: np.ndarray    #: ego node ids, one per ego column
    retained: np.ndarray    #: retained node ids, one per singleton column
    #: level k-1 node id that seeds each hyper-node (ego or retained node)
    seed_of_col: np.ndarray

    def dense(self) -> np.ndarray:
        """Detached dense ``(num_nodes, num_hyper)`` view of S."""
        out = np.zeros((self.num_nodes, self.num_hyper), self.values.dtype)
        np.add.at(out, (self.rows, self.cols), self.values.data)
        return out


def select_egos(phi_nodes: np.ndarray, neighbors: EgoNetworks,
                ego_sizes: np.ndarray) -> np.ndarray:
    """Apply the local-maximum rule; returns selected ego node ids.

    Parameters
    ----------
    phi_nodes:
        Per-node fitness φ_i.
    neighbors:
        1-hop pair list (``N_i^1``).
    ego_sizes:
        ``|N_i^λ|`` per node; nodes with empty ego-networks are excluded
        (they have nothing to absorb).

    Ties are broken by node id: node i beats neighbour j on equal fitness
    iff ``i < j``, preserving Proposition 1's non-emptiness under ties.
    """
    n = phi_nodes.shape[0]
    if neighbors.num_pairs == 0:
        return np.zeros(0, dtype=np.int64)
    ego, nbr = neighbors.ego, neighbors.member
    better = (phi_nodes[ego] > phi_nodes[nbr]) | (
        (phi_nodes[ego] == phi_nodes[nbr]) & (ego < nbr))
    # bincount over the losing pairs replaces np.logical_or.at, which is an
    # unbuffered per-pair scatter loop.
    loses = np.bincount(ego[~better], minlength=n) > 0
    has_members = ego_sizes > 0
    return np.flatnonzero(~loses & has_members)


def build_assignment(phi_pairs: Tensor, egos: EgoNetworks,
                     selected: np.ndarray) -> Assignment:
    """Assemble ``S_k`` from the selected ego-networks.

    Entries (Section 3.2):

    * ``S[j, col(i)] = φ_ij`` for every member j of a selected ego-network i
      (members may appear in several overlapping ego-networks);
    * ``S[i, col(i)] = 1`` for the ego itself (its own relation strength);
    * ``S[r, col(r)] = 1`` for every retained node r.

    The fancy-index gather and the concat forming ``values`` are live
    autograd ops, so the loss gradient reaches the fitness scores (the
    unpooling path consumes them, Section 3.3).
    """
    n = egos.num_nodes
    selected = np.asarray(selected, dtype=np.int64)
    is_selected = np.zeros(n, dtype=bool)
    is_selected[selected] = True
    col_of_ego = -np.ones(n, dtype=np.int64)
    col_of_ego[selected] = np.arange(selected.shape[0])

    pair_idx = np.flatnonzero(is_selected[egos.ego])
    member_rows = egos.member[pair_idx]
    member_cols = col_of_ego[egos.ego[pair_idx]]

    # A node is absorbed when it belongs to any selected ego-network —
    # as a member or as the ego itself.
    absorbed = np.zeros(n, dtype=bool)
    absorbed[member_rows] = True
    absorbed[selected] = True
    retained = np.flatnonzero(~absorbed)
    seed_of_col = np.concatenate([selected, retained])
    num_hyper = seed_of_col.shape[0]

    rows = np.concatenate([member_rows, seed_of_col])
    cols = np.concatenate([member_cols, np.arange(num_hyper)])
    dtype = phi_pairs.data.dtype
    ones = Tensor(np.ones(num_hyper, dtype=dtype), dtype=dtype)
    member_values = phi_pairs[pair_idx]
    values = (concat([member_values, ones])
              if member_values.shape[0] else ones)
    return Assignment(rows=rows, cols=cols, values=values, num_nodes=n,
                      num_hyper=num_hyper, selected=selected,
                      retained=retained, seed_of_col=seed_of_col)


def hyper_graph_connectivity(assignment: Assignment, edge_index: np.ndarray,
                             edge_weight: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """``A_k = S_kᵀ Â_{k-1} S_k`` (Section 3.2, "maintaining connectivity").

    ``Â`` includes self-loops, so two hyper-nodes sharing a common node are
    connected even without a crossing edge.  Self-loops of ``A_k`` are
    dropped from the returned edge list (the downstream GCN normalisation
    re-adds a unit self-loop).  Weights are detached: gradient flows through
    the feature path (Eq. 3) and the unpooling path, matching the sparse
    implementations of this operator family.
    """
    n, m = assignment.num_nodes, assignment.num_hyper
    src, dst = edge_index
    loops = np.arange(n, dtype=np.int64)
    # canonical_csr rows are destinations, so these are Âᵀ, S and Sᵀ.
    a_hat_t = canonical_csr(
        np.concatenate([src, loops]), np.concatenate([dst, loops]),
        np.concatenate([edge_weight, np.ones(n, dtype=edge_weight.dtype)]),
        n, n)
    rows, cols, values = assignment.rows, assignment.cols, assignment.values
    s = canonical_csr(cols, rows, values.data, n, m)
    s_t = canonical_csr(rows, cols, values.data, m, n)
    # The operand order of scipy's CSC product ``s.T @ Â @ s``:
    # (SᵀÂ)ᵀ = ÂᵀS, then (SᵀÂS)ᵀ = Sᵀ·(ÂᵀS); same weights, same order.
    d_t = csr_matmul(s_t, csr_matmul(a_hat_t, s, m), m)
    row, col = d_t.indices, d_t.row     # d_t[r, c] is A_k[c, r]
    keep = row != col
    new_edges = np.stack([row[keep], col[keep]])
    # Detached structural weights stay in the accumulation dtype; the
    # compute-dtype policy coerces them where they enter the graph.
    return new_edges, d_t.data[keep].astype(ACCUM_DTYPE)
