"""Hierarchical degree-corrected stochastic block model with text-like features.

The public node-task benchmarks (ACM, Citeseer, Cora, DBLP, Wiki, Emails)
are unavailable offline, so each is substituted by a deterministic synthetic
graph drawn from this generator (see DESIGN.md).  The generator is built so
that the property AdamGNN exploits — label-relevant structure at *several*
granularities — is present by construction:

* every class is split into several **communities** (the meso level), and
  every community into **sub-communities** (the micro level);
* edge probability decays with the level of the lowest common ancestor in
  that hierarchy (sub-community ≫ community ≫ class ≫ graph), with
  power-law degree corrections;
* features are sparse bag-of-words draws from per-class topic distributions
  mixed with a per-community topic, plus uniform noise words.

A flat GNN sees only the micro level; models that coarsen the graph can pick
up the community/class levels — exactly the contrast Tables 1–2 probe.

Two edge samplers share the block hierarchy:

* the **legacy** sampler (``method="dense"``) reproduces the original
  per-pair Bernoulli draw bit for bit — every published benchmark dataset
  keeps its exact edge list — but now streams the uniform draw over row
  blocks instead of materialising ``(n, n)`` pairwise masks, so its peak
  memory is ``O(block · n)`` rather than four dense ``n × n`` arrays;
* the **streaming** sampler (``method="streaming"``) visits block *pairs*,
  draws a binomial edge count per pair and places endpoints by
  degree-corrected weighted choice, so both time and memory are
  proportional to the emitted edge list.  This is what opens the
  10^5–10^6-node regime; ``method="auto"`` switches to it above
  :data:`STREAMING_NODE_THRESHOLD` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..tensor.random import make_rng

from ..graph import Graph, largest_component, sorted_unique

#: ``method="auto"`` uses the legacy per-pair sampler (bitwise-stable
#: datasets) below this node count and the streaming sampler above it.
STREAMING_NODE_THRESHOLD = 20_000

#: Block pairs with at most this many candidate node pairs are sampled
#: exactly (per-pair Bernoulli on the local block) even on the streaming
#: path: tiny dense blocks are where the binomial/weighted-endpoint
#: approximation is least accurate and where exactness costs nothing.
_EXACT_PAIR_LIMIT = 1 << 14

#: Row-block height of the legacy sampler's streamed uniform draw.  Peak
#: memory of the legacy path is ``O(_ROW_BLOCK * n)``; bitwise identity to
#: the historical full ``(n, n)`` draw holds for any value because the
#: generator fills C-order row blocks sequentially from the bit stream.
_ROW_BLOCK = 512


@dataclass
class SBMConfig:
    """Parameters of one synthetic node-task graph.

    Attributes
    ----------
    num_nodes, num_classes:
        Graph size and label count (class sizes are balanced ±1).
    communities_per_class, subs_per_community:
        Width of the two hidden hierarchy levels.
    p_sub, p_comm, p_class, p_out:
        Edge probabilities when two nodes share a sub-community, only a
        community, only a class, or nothing, respectively.
    num_features:
        Vocabulary size of the bag-of-words features; 0 means featureless
        (the Emails dataset).
    words_per_node:
        Expected number of word occurrences drawn per node.
    topic_noise:
        Probability that a word is drawn from the uniform background rather
        than the class/community topic (higher ⇒ harder task).
    degree_exponent:
        Pareto exponent of the degree corrections (heavier tail ⇒ hubs).
    """

    num_nodes: int
    num_classes: int
    communities_per_class: int = 2
    subs_per_community: int = 2
    p_sub: float = 0.20
    p_comm: float = 0.06
    p_class: float = 0.015
    p_out: float = 0.002
    num_features: int = 128
    words_per_node: int = 24
    topic_noise: float = 0.25
    degree_exponent: float = 2.5


def scaled_sbm_config(num_nodes: int, avg_degree: float = 12.0,
                      num_classes: int = 8,
                      communities_per_class: int = 2,
                      subs_per_community: int = 2,
                      num_features: int = 64) -> SBMConfig:
    """An :class:`SBMConfig` whose expected degree stays ``avg_degree``.

    The fixed probability ratios (sub : comm : class : out = 60 : 15 : 4
    : 1) keep the hierarchy's contrast constant while the absolute levels
    scale like ``1/num_nodes``, so graphs of any size share the same mean
    degree and the same multi-grained signal.  This is the configuration
    family the node-scaling benchmark sweeps.
    """
    if num_nodes < num_classes * communities_per_class * subs_per_community:
        raise ValueError("num_nodes must cover at least one node per block")
    ratios = {"sub": 60.0, "comm": 15.0, "cls": 4.0, "out": 1.0}
    n = num_nodes
    sub_size = n / (num_classes * communities_per_class * subs_per_community)
    comm_size = sub_size * subs_per_community
    class_size = comm_size * communities_per_class
    # Expected degree at unit scale: same-sub mates see the sub rate, the
    # rest of the community the comm rate, and so on outward.
    unit = (ratios["sub"] * (sub_size - 1)
            + ratios["comm"] * (comm_size - sub_size)
            + ratios["cls"] * (class_size - comm_size)
            + ratios["out"] * (n - class_size))
    scale = avg_degree / unit
    return SBMConfig(
        num_nodes=num_nodes, num_classes=num_classes,
        communities_per_class=communities_per_class,
        subs_per_community=subs_per_community,
        p_sub=min(1.0, ratios["sub"] * scale),
        p_comm=min(1.0, ratios["comm"] * scale),
        p_class=min(1.0, ratios["cls"] * scale),
        p_out=min(1.0, ratios["out"] * scale),
        num_features=num_features,
        words_per_node=12, topic_noise=0.4)


def _num_blocks(cfg: SBMConfig) -> int:
    return (cfg.num_classes * cfg.communities_per_class
            * cfg.subs_per_community)


def _block_prob_table(cfg: SBMConfig) -> np.ndarray:
    """``(B, B)`` base edge probability between sub-community blocks.

    Sub-community ids encode the hierarchy (``sub = comm * S + s`` and
    ``comm = class * C + c``), so the lowest-common-ancestor level of two
    blocks — and with it the base probability — is a pure function of the
    two ids.  ``B`` is the number of *blocks* (a few dozen), not nodes, so
    this table replaces the historical ``(n, n)`` same-class/same-community
    masks at a cost independent of graph size.
    """
    b = _num_blocks(cfg)
    ids = np.arange(b)
    comm = ids // cfg.subs_per_community
    cls = comm // cfg.communities_per_class
    table = np.full((b, b), cfg.p_out)
    table[cls[:, None] == cls[None, :]] = cfg.p_class
    table[comm[:, None] == comm[None, :]] = cfg.p_comm
    table[ids[:, None] == ids[None, :]] = cfg.p_sub
    return table


def _block_memberships(cfg: SBMConfig, rng: np.random.Generator
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign each node a (class, community, sub-community) triple.

    Returns integer arrays ``(labels, communities, subs)`` where community
    and sub ids are globally unique (not per-class), which simplifies the
    probability lookup.
    """
    n = cfg.num_nodes
    labels = np.sort(rng.permutation(n) % cfg.num_classes)
    rng.shuffle(labels)  # balanced but randomly placed
    communities = np.empty(n, dtype=np.int64)
    subs = np.empty(n, dtype=np.int64)
    for cls in range(cfg.num_classes):
        members = np.flatnonzero(labels == cls)
        comm_of = rng.integers(0, cfg.communities_per_class, size=members.size)
        communities[members] = cls * cfg.communities_per_class + comm_of
        sub_of = rng.integers(0, cfg.subs_per_community, size=members.size)
        subs[members] = (communities[members] * cfg.subs_per_community + sub_of)
    return labels, communities, subs


def _degree_corrections(cfg: SBMConfig,
                        rng: np.random.Generator) -> np.ndarray:
    """Clipped, mean-1 Pareto degree-correction factors (both samplers)."""
    theta = rng.pareto(cfg.degree_exponent, size=cfg.num_nodes) + 1.0
    theta /= theta.mean()
    return np.clip(theta, 0.25, 4.0)


def _sample_edges(cfg: SBMConfig, labels: np.ndarray, communities: np.ndarray,
                  subs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Legacy per-pair Bernoulli sampler (upper triangle), streamed by rows.

    Bitwise-identical to the historical dense implementation for every
    seed: the Pareto draw and the row-major uniform stream are consumed in
    the same order, and the block-probability lookup produces the exact
    float constants the old mask-overwrite produced.  What changed is the
    footprint — probabilities and uniforms exist one ``(_ROW_BLOCK, n)``
    slab at a time, and the three ``(n, n)`` same-class/community/sub
    boolean masks are gone entirely.
    """
    n = cfg.num_nodes
    del labels, communities  # identified through the sub-block hierarchy
    theta = _degree_corrections(cfg, rng)
    table = _block_prob_table(cfg)
    cols = np.arange(n)
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        prob = table[subs[start:stop, None], subs[None, :]]
        prob *= theta[start:stop, None] * theta[None, :]
        np.clip(prob, 0.0, 1.0, out=prob)
        hit = rng.random((stop - start, n)) < prob
        hit &= cols[None, :] > (start + np.arange(stop - start))[:, None]
        row, col = np.nonzero(hit)
        src_parts.append(row + start)
        dst_parts.append(col)
    src = np.concatenate(src_parts) if src_parts else np.zeros(0, np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.zeros(0, np.int64)
    edges = np.stack([np.concatenate([src, dst]),
                      np.concatenate([dst, src])]).astype(np.int64)
    return edges


def _theta_cdf(weights: np.ndarray) -> np.ndarray:
    """The CDF ``rng.choice(..., p=weights)`` builds, formed once.

    The same two NumPy steps as ``Generator.choice``, so a draw
    ``members[cdf.searchsorted(rng.random(k), side="right")]`` is that
    call bit for bit, and leaves the generator in the same state,
    without re-validating and re-accumulating ``p`` on every call.
    """
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def _weighted_distinct_pairs(count: int, mem_a: np.ndarray, cdf_a: np.ndarray,
                             mem_b: np.ndarray, cdf_b: np.ndarray,
                             within: bool, rng: np.random.Generator,
                             encode: int) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` distinct node pairs with endpoints drawn ∝ θ.

    ``cdf_a``/``cdf_b`` are the blocks' θ CDFs (:func:`_theta_cdf`).
    Duplicates (and self-pairs / orientation twins on the diagonal case)
    are resampled until the target count is met, so the emitted count
    matches the binomial draw exactly.  The loop terminates quickly in the
    sparse regime the streaming sampler targets; the iteration cap guards
    degenerate configurations.
    """
    chosen = np.zeros(0, dtype=np.int64)
    for _ in range(200):
        need = count - chosen.size
        if need <= 0:
            break
        i = mem_a[cdf_a.searchsorted(rng.random(need), side="right")]
        j = mem_b[cdf_b.searchsorted(rng.random(need), side="right")]
        if within:
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            keep = lo != hi
            keys = lo[keep] * encode + hi[keep]
        else:
            keys = i * encode + j
        chosen = sorted_unique(np.concatenate([chosen, keys]))
    return chosen // encode, chosen % encode


def _sample_edges_streamed(cfg: SBMConfig, labels: np.ndarray,
                           communities: np.ndarray, subs: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Block-pair streaming sampler: O(edges) time and memory.

    For every ordered pair of sub-community blocks ``(a, b)`` with base
    probability ``p`` the edge count is drawn once —
    ``Binomial(|pairs|, min(1, p · E[θ_i θ_j]))`` — and endpoints are then
    placed by θ-weighted choice, which reproduces the degree-corrected
    per-pair law in expectation (hubs collect proportionally more edges).
    Block pairs small enough to enumerate (≤ ``_EXACT_PAIR_LIMIT``
    candidate pairs) are sampled exactly per pair instead, clipped θ
    products and all, so small graphs stay distributionally faithful to
    the legacy sampler.  Nothing ``(n, n)``-shaped is ever built.
    """
    n = cfg.num_nodes
    del labels, communities
    theta = _degree_corrections(cfg, rng)
    table = _block_prob_table(cfg)
    num_blocks = _num_blocks(cfg)

    order = np.argsort(subs, kind="stable")
    bounds = np.searchsorted(subs[order], np.arange(num_blocks + 1))
    members = [order[bounds[b]:bounds[b + 1]] for b in range(num_blocks)]
    sums = np.array([theta[m].sum() for m in members])
    sq_sums = np.array([(theta[m] ** 2).sum() for m in members])
    cdfs = [_theta_cdf(theta[m] / total) if m.size else m
            for m, total in zip(members, sums)]

    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    for a in range(num_blocks):
        mem_a = members[a]
        na = mem_a.size
        if na == 0:
            continue
        for b in range(a, num_blocks):
            mem_b = members[b]
            nb = mem_b.size
            if nb == 0:
                continue
            p = table[a, b]
            within = a == b
            npairs = na * (na - 1) // 2 if within else na * nb
            if npairs == 0 or p <= 0.0:
                continue
            if npairs <= _EXACT_PAIR_LIMIT:
                # Exact per-pair Bernoulli on the tiny local block pair.
                pi = table[a, b] * np.multiply.outer(theta[mem_a],
                                                     theta[mem_b])
                np.clip(pi, 0.0, 1.0, out=pi)
                hit = rng.random(pi.shape) < pi
                if within:
                    hit &= mem_b[None, :] > mem_a[:, None]
                row, col = np.nonzero(hit)
                src_parts.append(mem_a[row])
                dst_parts.append(mem_b[col])
                continue
            if within:
                mean_w = (sums[a] ** 2 - sq_sums[a]) / (na * (na - 1))
            else:
                mean_w = (sums[a] / na) * (sums[b] / nb)
            count = int(rng.binomial(npairs, min(1.0, p * mean_w)))
            if count == 0:
                continue
            count = min(count, npairs)
            u, v = _weighted_distinct_pairs(count, mem_a, cdfs[a], mem_b,
                                            cdfs[b], within, rng, encode=n)
            src_parts.append(u)
            dst_parts.append(v)
    src = (np.concatenate(src_parts) if src_parts
           else np.zeros(0, np.int64))
    dst = (np.concatenate(dst_parts) if dst_parts
           else np.zeros(0, np.int64))
    edges = np.stack([np.concatenate([src, dst]),
                      np.concatenate([dst, src])]).astype(np.int64)
    return edges


def _class_topics(cfg: SBMConfig) -> List[np.ndarray]:
    vocab = cfg.num_features
    words_per_topic = max(vocab // (cfg.num_classes + 1), 4)
    topics = []
    for cls in range(cfg.num_classes):
        weights = np.full(vocab, 1e-3)
        anchor = (cls * words_per_topic) % max(vocab - words_per_topic, 1)
        weights[anchor:anchor + words_per_topic] = 1.0
        topics.append(weights / weights.sum())
    return topics


def _sample_features(cfg: SBMConfig, labels: np.ndarray,
                     communities: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Sparse bag-of-words features from class+community topics.

    The per-node loop is the legacy draw order — kept so every existing
    benchmark dataset's feature matrix stays bitwise stable.  The
    streaming generator uses :func:`_sample_features_streamed` instead.
    """
    n, vocab = cfg.num_nodes, cfg.num_features
    class_topics = _class_topics(cfg)
    num_comms = int(communities.max()) + 1
    comm_shift = rng.random((num_comms, vocab)) * 0.3

    x = np.zeros((n, vocab), dtype=np.float64)
    for i in range(n):
        topic = class_topics[labels[i]] + comm_shift[communities[i]]
        topic = topic / topic.sum()
        mixed = (1.0 - cfg.topic_noise) * topic + cfg.topic_noise / vocab
        count = rng.poisson(cfg.words_per_node)
        if count == 0:
            count = 1
        drawn = rng.choice(vocab, size=count, p=mixed)
        np.add.at(x[i], drawn, 1.0)
    # Binary presence indicators, the Planetoid convention.
    return (x > 0).astype(np.float64)


def _sample_features_streamed(cfg: SBMConfig, labels: np.ndarray,
                              communities: np.ndarray,
                              rng: np.random.Generator) -> np.ndarray:
    """Vectorised feature draw, one community at a time.

    Nodes in one community share a topic distribution, so the per-node
    Poisson counts and word draws collapse into one batched draw per
    community — O(n + words) instead of n Python-level iterations.
    """
    n, vocab = cfg.num_nodes, cfg.num_features
    class_topics = _class_topics(cfg)
    num_comms = int(communities.max()) + 1
    comm_shift = rng.random((num_comms, vocab)) * 0.3

    order = np.argsort(communities, kind="stable")
    bounds = np.searchsorted(communities[order], np.arange(num_comms + 1))
    x = np.zeros((n, vocab), dtype=np.float64)
    for comm in range(num_comms):
        members = order[bounds[comm]:bounds[comm + 1]]
        if members.size == 0:
            continue
        topic = class_topics[labels[members[0]]] + comm_shift[comm]
        topic = topic / topic.sum()
        mixed = (1.0 - cfg.topic_noise) * topic + cfg.topic_noise / vocab
        counts = rng.poisson(cfg.words_per_node, size=members.size)
        counts = np.maximum(counts, 1)
        drawn = rng.choice(vocab, size=int(counts.sum()), p=mixed)
        rows = np.repeat(members, counts)
        x[rows, drawn] = 1.0
    return x


def generate_sbm_graph(cfg: SBMConfig, seed: int,
                       method: str = "auto") -> Graph:
    """Generate one graph from ``cfg``, restricted to its largest component.

    ``method`` selects the edge sampler: ``"dense"`` is the legacy
    per-pair Bernoulli draw (bitwise-stable datasets, peak memory
    ``O(_ROW_BLOCK · n)``), ``"streaming"`` the block-pair binomial
    sampler whose cost is proportional to the edge list, and ``"auto"``
    (default) picks streaming above :data:`STREAMING_NODE_THRESHOLD`
    nodes.  Restricting to the giant component keeps Proposition 1's
    connectivity premise true and mirrors the standard preprocessing of
    the citation benchmarks.
    """
    if method not in ("auto", "dense", "streaming"):
        raise ValueError(f"unknown SBM sampling method {method!r}")
    if method == "auto":
        method = ("streaming" if cfg.num_nodes > STREAMING_NODE_THRESHOLD
                  else "dense")
    rng = make_rng(seed)
    labels, communities, subs = _block_memberships(cfg, rng)
    if method == "streaming":
        edges = _sample_edges_streamed(cfg, labels, communities, subs, rng)
        x = (_sample_features_streamed(cfg, labels, communities, rng)
             if cfg.num_features > 0 else None)
    else:
        edges = _sample_edges(cfg, labels, communities, subs, rng)
        x = (_sample_features(cfg, labels, communities, rng)
             if cfg.num_features > 0 else None)
    graph = Graph(edges, x=x, y=labels, num_nodes=cfg.num_nodes)
    return largest_component(graph)
