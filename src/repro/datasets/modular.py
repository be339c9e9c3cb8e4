"""Shared generator for modular graphs with fold-based class labels.

Both graph-classification families (molecule-style and protein-style) are
instances of one construction:

* a graph is a **chain of dense modules** (functional groups / secondary-
  structure blocks) joined by single contacts;
* **class 1** adds *long-range* module contacts (chain distance ≥ 2),
  folding the graph into a compact cluster;
* **class 0** adds a smaller number of contacts between *adjacent*
  modules only, staying elongated;
* node features one-hot a per-module type (noisily), plus noise columns.

Module counts, sizes and densities are identically distributed across
classes, so per-node statistics are uninformative.  The contact budgets
overlap but differ in mean — mirroring the real TU datasets, where weak
global statistics give any model partial signal (the ~70%+ floor every
baseline reaches in Table 1) — while the dominant signal, *where the
contacts land relative to the module (meso) structure*, is what separates
hierarchical models from flat ones: a pooled/hyper-graph view exposes the
fold pattern after one coarsening level, whereas flat message passing must
recover it through many hops.

**Draw order.**  The order of draws from the generator is part of every
dataset's definition: the module count, the module sizes, one uniform per
intra-module pair (module, then ``i``, then ``j > i``), two endpoints per
chain contact (module ``b``'s, then ``b + 1``'s), the extra-contact budget
and its contacts, one uniform per module node for pendant decorations
(only when ``decoration_rate > 0``), then per module its type followed by
each node's type noise, and last the noise columns.  The builder batches
these draws; a NumPy ``Generator`` consumes its stream the same way for
one vector ``random``/``integers`` call as for the run of scalar calls it
replaces (bounded integers take 32-bit halves from the bit generator's
own buffer either way).  ``tests/datasets/test_modular.py`` checks that
against a per-pair scalar oracle, generator end state included, and pins
a digest of every graph-task dataset: reordering any draw changes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..graph import Graph, sorted_unique
from ..tensor.random import make_rng

from .base import GraphDataset, split_graphs


@dataclass
class ModularGraphConfig:
    """Parameters of one fold-labelled modular-graph dataset."""

    num_graphs: int
    modules: Tuple[int, int] = (4, 7)       #: min/max modules per graph
    module_size: Tuple[int, int] = (5, 9)   #: nodes per module
    p_in: float = 0.55                      #: intra-module edge probability
    extra_contacts: Tuple[int, int] = (2, 4)   #: fold budget, class 1
    local_contacts: Tuple[int, int] = (0, 1)   #: adjacent budget, class 0
    num_features: int = 16
    num_module_types: int = 3               #: one-hot module-type states
    type_noise: float = 0.0                 #: per-node type corruption rate
    feature_noise_rate: float = 0.1         #: density of the noise columns
    decoration_rate: float = 0.0            #: pendant nodes per module node
    #: probability a module takes type 0, per class (class 0, class 1).
    #: Unequal values add a *composition* signal any mean-readout model can
    #: partially exploit — the ~70% floor all Table-1 baselines share —
    #: while the fold signal on top separates hierarchical models.
    type0_rate: Tuple[float, float] = (1 / 3, 1 / 3)


@lru_cache(maxsize=None)
def _upper_pairs(k: int) -> np.ndarray:
    """Row-major ``(i, j)``, ``i < j``, pairs of a ``k``-node module."""
    pairs = np.stack(np.triu_indices(k, 1))
    pairs.flags.writeable = False
    return pairs


def build_modular_graph(cfg: ModularGraphConfig, label: int,
                        rng: np.random.Generator) -> Graph:
    """Sample one graph whose fold pattern encodes ``label``."""
    num_modules = int(rng.integers(cfg.modules[0], cfg.modules[1] + 1))
    sizes = rng.integers(cfg.module_size[0], cfg.module_size[1] + 1,
                         size=num_modules)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    integers, random = rng.integers, rng.random

    # Dense modules, each internally connected via a backbone path: every
    # upper-triangle pair draws, and the (i, i + 1) pairs are kept anyway.
    intra = np.concatenate([_upper_pairs(k) for k in sizes.tolist()], axis=1)
    intra += np.repeat(offsets[:-1], sizes * (sizes - 1) // 2)
    keep = random(intra.shape[1]) < cfg.p_in
    keep |= intra[1] - intra[0] == 1

    # Chain backbone: one contact per adjacent module pair, endpoints
    # drawn interleaved (module b's node, then module b + 1's).
    bounds = np.repeat(offsets, 2)[1:-1]
    chain = integers(bounds[:-2], bounds[2:])

    # Extra contacts: long-range folds for class 1, a smaller budget of
    # adjacent reinforcements for class 0 (overlapping count distributions).
    # Scalar draws: b2's range depends on b1.
    off = offsets.tolist()
    contacts: List[int] = []
    lo, hi = cfg.extra_contacts if label == 1 else cfg.local_contacts
    for _ in range(int(integers(lo, hi + 1))):
        if label == 1 and num_modules >= 3:
            b1 = int(integers(0, num_modules - 2))
            b2 = int(integers(b1 + 2, num_modules))
        else:
            b1 = int(integers(0, num_modules - 1))
            b2 = b1 + 1
        contacts.append(int(integers(off[b1], off[b1 + 1])))
        contacts.append(int(integers(off[b2], off[b2 + 1])))
    extra = np.asarray(contacts, dtype=np.int64)

    # Optional pendant decorations (same for both classes).
    decorated = np.zeros(0, dtype=np.int64)
    if cfg.decoration_rate > 0:
        decorated = np.flatnonzero(random(n) < cfg.decoration_rate)
    total_nodes = n + decorated.shape[0]
    pendants = np.arange(n, total_nodes, dtype=np.int64)

    # Every pair has u < v (contacts run from a lower module to a higher
    # one), so ``u·N + v`` codes the undirected edge, and sorting the
    # codes sorts the pairs.
    u = np.concatenate([intra[0, keep], chain[0::2], extra[0::2], decorated])
    v = np.concatenate([intra[1, keep], chain[1::2], extra[1::2], pendants])
    src, dst = np.divmod(sorted_unique(u * total_nodes + v), total_nodes)
    edge_index = np.stack([np.concatenate([src, dst]),
                           np.concatenate([dst, src])])

    # Features: noisy one-hot module type + Bernoulli noise columns.
    # Scalar draws: a node draws its replacement type only when noised.
    x = np.zeros((total_nodes, cfg.num_features), dtype=np.float64)
    t = cfg.num_module_types
    type0 = cfg.type0_rate[label]
    noise = cfg.type_noise
    states: List[int] = []
    for size in sizes.tolist():
        state = 0 if random() < type0 or t == 1 else int(integers(1, t))
        for _ in range(size):
            noised = noise and random() < noise
            states.append(int(integers(0, t)) if noised else state)
    x[np.arange(n), states] = 1.0
    noise_cols = cfg.num_features - t
    if noise_cols > 0:
        x[:, t:] = random((total_nodes, noise_cols)) \
            < cfg.feature_noise_rate
    return Graph(edge_index, x=x, y=np.asarray(label),
                 num_nodes=total_nodes)


def generate_modular_dataset(name: str, cfg: ModularGraphConfig,
                             seed: int) -> GraphDataset:
    """Generate a balanced two-class dataset with 80/10/10 splits."""
    rng = make_rng(seed)
    graphs = [build_modular_graph(cfg, label=i % 2, rng=rng)
              for i in range(cfg.num_graphs)]
    train, val, test = split_graphs(cfg.num_graphs,
                                    make_rng(seed + 13))
    return GraphDataset(name=name, graphs=graphs, num_classes=2,
                        num_features=cfg.num_features,
                        train_index=train, val_index=val, test_index=test)
