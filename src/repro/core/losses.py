"""AdamGNN training losses (Section 3.5).

* **Self-optimisation loss** ``L_KL`` (Eq. 5): a Student-t soft assignment
  ``Q`` of every node to every selected ego, sharpened into a target
  distribution ``P``, pulled together by ``KL(P ‖ Q)``.  Keeps nodes of one
  ego-network tight and distinct from other ego-networks.
* **Reconstruction loss** ``L_R`` (Eq. 6): ``A' = sigmoid(H Hᵀ)`` scored
  against the observed adjacency, countering the over-smoothing that
  unpooling would otherwise amplify.  A dense form (exact Eq. 6) is
  provided for small graphs and tests; the default is the standard
  edge-sampled estimator, which scales to batched graphs and is also the
  link-prediction task loss (for LP, ``L_task = L_R``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graph import sorted_unique
from ..tensor import (ACCUM_DTYPE, Tensor, clip, gather_rows, log, pair_dot,
                      sigmoid, square_norm)
from ..nn.losses import binary_cross_entropy_with_logits


def soft_assignment(h: Tensor, ego_ids: np.ndarray, mu: float = 1.0) -> Tensor:
    """Student-t similarity ``Q`` between every node and every ego (Eq. 5).

    ``q_ij = (1 + ‖h_j − h_i‖²/μ)^{-1}``, normalised over egos ``i``.
    Returns an ``(n, m)`` tensor with rows summing to 1.
    """
    ego_ids = np.asarray(ego_ids, dtype=np.int64)
    if ego_ids.size == 0:
        raise ValueError("soft_assignment needs at least one ego")
    ego_h = gather_rows(h, ego_ids)
    node_sq = square_norm(h, axis=-1, keepdims=True)           # (n, 1)
    ego_sq = square_norm(ego_h, axis=-1, keepdims=True)        # (m, 1)
    cross = h @ ego_h.transpose()                              # (n, m)
    distances = node_sq + ego_sq.transpose() - cross * 2.0
    # Numerical guard: distances are mathematically >= 0.
    distances = clip(distances, 0.0, float("inf"))
    kernel = (distances * (1.0 / mu) + 1.0) ** -1.0
    return kernel / kernel.sum(axis=-1, keepdims=True)


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Sharpened target ``P`` from a detached ``Q`` (Eq. 5).

    ``p_ij = (q_ij² / g_i) / Σ_{i'} (q_ij'² / g_{i'})`` with soft
    frequencies ``g_i = Σ_j q_ij``.  Plain array: the target is held fixed
    while Q chases it.
    """
    # The detached target sharpens in ACCUM_DTYPE: q² over tiny soft
    # frequencies loses mass in float32.
    q = np.asarray(q, dtype=ACCUM_DTYPE)
    frequencies = np.maximum(q.sum(axis=0, keepdims=True), 1e-12)
    weight = q ** 2 / frequencies
    return weight / np.maximum(weight.sum(axis=1, keepdims=True), 1e-12)


def _self_optimisation_loss_reference(h: Tensor, ego_ids: np.ndarray,
                                      mu: float) -> Tensor:
    """Compositional Eq. 5 (autograd-derived backward); kept for tests."""
    q = soft_assignment(h, ego_ids, mu=mu)
    p = target_distribution(q.data)
    q_safe = clip(q, 1e-12, 1.0)
    p_entropy = float(np.where(p > 0, p * np.log(np.maximum(p, 1e-12)),
                               0.0).sum())
    cross = (Tensor(p) * log(q_safe)).sum()
    n = h.shape[0]
    return (Tensor(p_entropy) - cross) * (1.0 / float(n))


def self_optimisation_loss(h: Tensor, ego_ids: np.ndarray,
                           mu: float = 1.0) -> Tensor:
    """``L_KL = KL(P ‖ Q)`` per node, averaged (Eq. 5).

    The fast path fuses the whole computation — Student-t kernel, row
    normalisation, target sharpening, KL — into one autograd node with a
    hand-derived backward.  The compositional form builds ~15 ``(n, m)``
    intermediate tensors per call, which made this loss a double-digit
    share of every graph-classification epoch; the fused form does one
    ``(n, m)`` matmul forward and two backward, plus a handful of
    elementwise passes.  The compositional reference is retained under
    :func:`repro.tensor.naive_kernels` and the equivalence (values and
    gradients) is covered by tests.
    """
    ego_ids = np.asarray(ego_ids, dtype=np.int64)
    if ego_ids.size == 0:
        return Tensor(0.0)
    from ..tensor import fast_kernels_enabled
    if not fast_kernels_enabled():
        return _self_optimisation_loss_reference(h, ego_ids, mu)

    data = h.data
    n = data.shape[0]
    ego_h = data[ego_ids]                                     # (m, d)
    node_sq = np.einsum("ij,ij->i", data, data)               # (n,)
    ego_sq = node_sq[ego_ids]                                 # (m,)
    raw = np.matmul(data, ego_h.T)                            # (n, m)
    raw *= -2.0
    raw += node_sq[:, None]
    raw += ego_sq[None, :]
    kernel = np.maximum(raw, 0.0)                             # distances
    kernel *= 1.0 / mu
    kernel += 1.0
    np.reciprocal(kernel, out=kernel)                         # (1+d/μ)^{-1}
    denom = kernel.sum(axis=1, keepdims=True)                 # > 0 always
    q = np.divide(kernel, denom)
    # Target distribution (Eq. 5) inlined so its intermediates feed the
    # loss identity below: p = (q²/g) / rowsum with g the soft frequency.
    freq = np.maximum(q.sum(axis=0, keepdims=True), 1e-12)    # (1, m)
    p = np.multiply(q, q)
    p /= freq
    rowsum = np.maximum(p.sum(axis=1, keepdims=True), 1e-12)  # (n, 1)
    p /= rowsum
    # KL(P ‖ Q) via log p = 2·log q − log g − log rowsum (rows of p sum
    # to 1), so a single (n, m) logarithm serves both KL terms:
    # Σ p log p − Σ p log q = Σ p log q − Σ_j colp_j log g_j − Σ_i log s_i.
    # q ≤ 1 by construction, so clip(q, 1e-12, 1) is just a lower floor.
    log_q = np.maximum(q, 1e-12)
    np.log(log_q, out=log_q)
    # The three scalar KL reductions accumulate in ACCUM_DTYPE whatever the
    # compute dtype — thousands of small signed terms cancel here, and
    # float32 accumulation visibly degrades the loss.  The boundary cast
    # keeps the loss scalar in the graph's dtype.
    cross_sum = np.einsum("ij,ij->", p, log_q, dtype=ACCUM_DTYPE)
    colp = p.sum(axis=0, dtype=ACCUM_DTYPE)                   # (m,)
    out_data = np.asarray(
        (cross_sum - colp @ np.log(freq.ravel()).astype(ACCUM_DTYPE)
         - np.log(rowsum).sum(dtype=ACCUM_DTYPE)) / n,
        dtype=data.dtype)

    def backward(grad: np.ndarray) -> None:
        scale = float(grad) / n
        # d(-Σ p log q_safe)/dq, zero where the clip was active (q < 1e-12
        # floors to the clip constant — same subgradient the compositional
        # clip node uses).  P is the detached target: no gradient through
        # it, and p itself is dead after this line, so gq reuses its buffer.
        small = q < 1e-12
        gq = np.divide(p, q, out=p, where=~small)
        gq *= -scale
        gq[small] = 0.0
        # q = kernel / denom (denom = row sum of kernel).
        row_dot = np.einsum("ij,ij->i", gq, q)
        gd = gq
        gd -= row_dot[:, None]
        # kernel = (1 + d/μ)^{-1}  →  dk/dd = -k²/μ; distances = max(raw, 0).
        # The 1/denom of dq/dk, the -1/μ and the per-row sign fold into one
        # broadcast factor.
        gd *= (-1.0 / mu) / denom
        gd *= kernel
        gd *= kernel
        gd[raw < 0.0] = 0.0
        # raw_ij = |h_i|² + |e_j|² − 2·cross_ij.
        row_gd = gd.sum(axis=1)
        col_gd = gd.sum(axis=0)
        gh = np.matmul(gd, ego_h)                             # via cross, h
        gh *= -2.0
        gh += (2.0 * row_gd)[:, None] * data                  # via node_sq
        ge = gd.T @ data                                      # via cross, e
        ge *= -2.0
        ge += (2.0 * col_gd)[:, None] * ego_h                 # via ego_sq
        # e = h[ego_ids]; selected egos are distinct, but stay correct for
        # duplicate ids (the public API allows them).
        np.add.at(gh, ego_ids, ge)
        h._accumulate(gh)

    return h._make_child(out_data, (h,), backward)


def dense_reconstruction_loss(h: Tensor, adjacency: np.ndarray) -> Tensor:
    """Exact Eq. 6 on a dense adjacency (small graphs / tests)."""
    logits = h @ h.transpose()
    # 0/1 targets in the logits' dtype (the BCE recoerces anyway, but this
    # keeps the temporary from doubling a float32 batch's footprint).
    targets = (np.asarray(adjacency) > 0).astype(logits.data.dtype)
    return binary_cross_entropy_with_logits(logits.reshape(-1),
                                            targets.reshape(-1))


def _is_edge(codes: np.ndarray, existing: np.ndarray) -> np.ndarray:
    """Membership of ``codes`` in the sorted ``existing`` array.  Sorted
    queries let each binary search start where the last ended (~2x)."""
    if existing.size == 0:
        return np.zeros(codes.shape, dtype=bool)
    order = np.argsort(codes)
    ranked = codes[order]
    pos = np.searchsorted(existing, ranked)
    pos[pos == existing.size] = existing.size - 1
    found = np.empty(codes.shape, dtype=bool)
    found[order] = existing[pos] == ranked
    return found


def sample_non_edges(edge_index: np.ndarray, num_nodes: int, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Sample ``count`` node pairs that are not observed edges.

    Rejection sampling with a fallback acceptance after 20 rounds (on very
    dense graphs a uniformly sampled "negative" colliding with an edge is
    acceptable noise for the estimator).
    """
    # Vectorised rejection sampling: draw candidate batches, reject
    # self-loops and observed edges via a sorted-code membership test.
    # This runs every training step, so the Python-level per-pair loop it
    # replaces was a measurable slice of the epoch.
    existing = sorted_unique(edge_index[0].astype(np.int64) * num_nodes
                             + edge_index[1])
    out_u: list = []
    out_v: list = []
    found = 0
    attempts = 0
    budget = 20 * max(count, 1)
    while found < count and attempts < budget:
        m = min(max(2 * (count - found), 64), budget - attempts)
        u = rng.integers(0, num_nodes, size=m)
        v = rng.integers(0, num_nodes, size=m)
        attempts += m
        codes = u * num_nodes + v
        keep = (u != v) & ~_is_edge(codes, existing)
        u, v = u[keep], v[keep]
        if u.size:
            out_u.append(u)
            out_v.append(v)
            found += u.size
    while found < count:
        # Fallback acceptance: only self-loops are rejected from here on.
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
    pairs = np.stack([np.concatenate(out_u)[:count],
                      np.concatenate(out_v)[:count]])
    return pairs.astype(np.int64)


def pair_logits(h: Tensor, pairs: np.ndarray) -> Tensor:
    """Inner-product decoder logits ``h_uᵀ h_v`` for ``(2, m)`` pairs."""
    return pair_dot(h, pairs[0], pairs[1])


def sampled_reconstruction_loss(h: Tensor, edge_index: np.ndarray,
                                num_nodes: int,
                                rng: np.random.Generator,
                                positive_pairs: Optional[np.ndarray] = None,
                                ) -> Tensor:
    """Edge-sampled estimator of Eq. 6 (and the LP task loss).

    Positives default to the observed edges; an equal number of sampled
    non-edges provide the negative class.
    """
    positives = edge_index if positive_pairs is None else positive_pairs
    if positives.shape[1] == 0:
        return Tensor(0.0)
    negatives = sample_non_edges(edge_index, num_nodes, positives.shape[1],
                                 rng)
    from ..tensor import fast_kernels_enabled
    if not fast_kernels_enabled():
        # Compositional reference: score both pair sets, concatenate, BCE.
        from ..tensor import concat
        logits = concat([pair_logits(h, positives),
                         pair_logits(h, negatives)], axis=0)
        labels = np.concatenate([
            np.ones(positives.shape[1], dtype=h.data.dtype),
            np.zeros(negatives.shape[1], dtype=h.data.dtype)])
        return binary_cross_entropy_with_logits(logits, labels)
    return _pair_bce_fused(h, positives, negatives)


def _pair_bce_fused(h: Tensor, positives: np.ndarray,
                    negatives: np.ndarray) -> Tensor:
    """One autograd node for the sampled decoder BCE.

    The fusion drops the concat node and the two pair-dot nodes from the
    graph, and the logits are taken in row blocks, so no ``(P, d)`` gather
    outlives the forward.  The backward pushes the BCE residual
    ``σ(logit) − target`` straight into the pair-dot VJP — one
    gather-scale-scatter per pair list, reusing the forward's
    ``e^{−|logit|}``.  The negative ids are fresh every step; the scatter
    builds its weighted CSR matrix from them directly, with no cached plan.
    """
    from ..tensor import _segment_plans as _plans
    data = h.data
    pu, pv = positives[0], positives[1]
    nu, nv = negatives[0], negatives[1]
    pos_logits = _plans.gathered_dot(data, pu, data, pv)
    neg_logits = _plans.gathered_dot(data, nu, data, nv)
    count = pos_logits.shape[0] + neg_logits.shape[0]
    ep = np.exp(-np.abs(pos_logits))
    en = np.exp(-np.abs(neg_logits))
    # Stable softplus forms: BCE(x, 1) = max(x,0) − x + log1p(e^{−|x|}),
    # BCE(x, 0) = max(x,0) + log1p(e^{−|x|}) — identical to the fused
    # binary_cross_entropy_with_logits on the concatenated logits.
    pos_term = np.maximum(pos_logits, 0.0) - pos_logits + np.log1p(ep)
    neg_term = np.maximum(neg_logits, 0.0) + np.log1p(en)
    # Pair-BCE accumulates its scalar sums in ACCUM_DTYPE (cast at the
    # boundary) — one of the precision-policy's accumulation exceptions.
    out_data = np.asarray((pos_term.sum(dtype=ACCUM_DTYPE)
                           + neg_term.sum(dtype=ACCUM_DTYPE)) / count,
                          dtype=data.dtype)

    def backward(grad: np.ndarray) -> None:
        scale = float(grad) / count
        sig_p = np.where(pos_logits >= 0, 1.0, ep) / (1.0 + ep)
        sig_n = np.where(neg_logits >= 0, 1.0, en) / (1.0 + en)
        gh = _plans.pair_scatter(h.data, (sig_p - 1.0) * scale, pu, pv)
        gh += _plans.pair_scatter(h.data, sig_n * scale, nu, nv)
        h._accumulate(gh)

    return h._make_child(out_data, (h,), backward)


def link_probabilities(h: Tensor, pairs: np.ndarray) -> np.ndarray:
    """Decoder probabilities ``σ(h_uᵀ h_v)`` as a detached array."""
    return sigmoid(pair_logits(h, pairs)).data
