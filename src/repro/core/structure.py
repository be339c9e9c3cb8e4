"""Per-graph structure precomputation and block-diagonal composition.

Everything AdamGNN needs at level 0 — λ-hop ego-network pair lists, the
GCN-normalised edge weights of Eq. 1, unit edge weights — is a pure
function of each member graph's static topology.  Minibatch training used
to recompute all of it per batch per epoch (BFS + symmetric normalisation
on the freshly collated arrays); instead, this module computes each
graph's structure **once per dataset** and *composes* batch-level
structure by offsetting node ids into the block-diagonal batch:

* batch ego-networks  = union of per-graph pair lists, ids offset
  (:func:`repro.core.egonet.compose_ego_networks`);
* batch GCN weights   = concatenation of per-graph normalised edge parts
  followed by per-graph self-loop parts
  (:func:`repro.graph.normalize.gcn_edge_weight_parts`).

Both compositions are *exact* — bit-identical to direct recomputation on
the collated batch — because neither GCN degrees nor λ-hop reachability
ever cross connected components, and the concatenation orders mirror what
the direct code paths emit.  The composition property tests
(``tests/core/test_structure_composition.py``) pin this down.

Composition applies to **level 0 only**: pooled-level topology depends on
learned fitness scores and legitimately changes every epoch, so it is
never precomputed or cached anywhere in this library.

:class:`DatasetStructures` bundles the per-graph precomputations (lazy,
one per graph) with a :class:`~repro.graph.cache.BatchStructureCache`, so
the fixed val/test chunks and recurring train chunks return the *same*
collated batch object across epochs — the object a recurring step's
training tape and a served batch's workspace are keyed on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph import Graph, GraphBatch
from ..graph.cache import DEFAULT_BATCH_CAPACITY, BatchStructureCache
from ..graph.normalize import gcn_edge_weight_parts
from .egonet import (EgoNetworks, build_ego_networks, compose_ego_networks,
                     one_hop_neighbors)


@dataclass
class GraphStructure:
    """Static level-0 structure of one member graph (precomputed once)."""

    graph: Graph
    egos: EgoNetworks            #: λ-hop ego-network pair list
    neighbors: EgoNetworks       #: 1-hop pairs (same object when λ == 1)
    norm_weight: np.ndarray      #: normalised weights of the graph's edges
    loop_weight: np.ndarray      #: normalised self-loop weight per node


@dataclass
class BatchStructure:
    """Composed level-0 structure of one block-diagonal batch."""

    egos: EgoNetworks            #: batch-level λ-hop pair list
    neighbors: EgoNetworks       #: batch-level 1-hop pair list
    norm_edge_index: np.ndarray  #: ``(2, E + N)`` edges incl. self-loops
    norm_edge_weight: np.ndarray  #: matching normalised weights

    @property
    def num_nodes(self) -> int:
        return self.egos.num_nodes


def precompute_graph_structure(graph: Graph, radius: int = 1,
                               ) -> GraphStructure:
    """All static level-0 structure of ``graph`` for ego radius ``radius``."""
    n = graph.num_nodes
    egos = build_ego_networks(graph.edge_index, n, radius=radius)
    neighbors = (egos if radius == 1
                 else one_hop_neighbors(graph.edge_index, n))
    norm_weight, loop_weight = gcn_edge_weight_parts(
        graph.edge_index, graph.edge_weight, n)
    return GraphStructure(graph=graph, egos=egos, neighbors=neighbors,
                          norm_weight=norm_weight, loop_weight=loop_weight)


def compose_batch(graphs: Sequence[Graph],
                  structures: Sequence[GraphStructure],
                  y: Optional[np.ndarray] = None,
                  ) -> Tuple[GraphBatch, BatchStructure]:
    """Collate ``graphs`` and compose their precomputed level-0 structure.

    The returned batch equals :meth:`GraphBatch.from_graphs` on the same
    graphs; the returned structure equals direct recomputation
    (``build_ego_networks`` / ``normalize_edges``) on that batch, without
    running BFS or normalisation on the collated arrays.
    """
    if len(graphs) != len(structures):
        raise ValueError("one structure per graph required")
    batch = GraphBatch.from_graphs(graphs, y=y)
    offsets = batch.node_offsets()
    n = batch.num_nodes
    egos = compose_ego_networks([s.egos for s in structures], offsets, n)
    if structures[0].neighbors is structures[0].egos:
        neighbors = egos
    else:
        neighbors = compose_ego_networks([s.neighbors for s in structures],
                                         offsets, n)
    loops = np.arange(n, dtype=np.int64)
    norm_edge_index = np.concatenate(
        [batch.edge_index, np.stack([loops, loops])], axis=1)
    norm_edge_weight = np.concatenate(
        [s.norm_weight for s in structures]
        + [s.loop_weight for s in structures])
    return batch, BatchStructure(egos=egos, neighbors=neighbors,
                                 norm_edge_index=norm_edge_index,
                                 norm_edge_weight=norm_edge_weight)


class DatasetStructures:
    """Per-graph precomputation + collated-batch cache for a graph list.

    Parameters
    ----------
    graphs:
        The dataset's member graphs (treated as immutable, like every
        structural array in this library).
    radius:
        Ego-network radius λ of the consuming model.  ``None`` disables
        structure composition — :meth:`batch` then returns plain collated
        batches (still cached by chunk), which is what non-AdamGNN
        baselines need.
    labels:
        Optional per-graph label array; chunk labels become a fancy-index
        slice instead of a per-graph Python loop.
    capacity:
        Collated-batch LRU bound (see :class:`BatchStructureCache`).
    dtype:
        Optional compute precision.  Member graphs are cast **once** here
        (via :meth:`Graph.astype`) so every downstream array — collated
        features, composed normalised weights, cached scatter matrices —
        is stored in compute precision instead of being re-cast per batch
        per epoch.  ``None`` keeps the graphs' own dtype (float64 for all
        bundled loaders).
    """

    def __init__(self, graphs: Sequence[Graph],
                 radius: Optional[int] = None,
                 labels: Optional[np.ndarray] = None,
                 capacity: int = DEFAULT_BATCH_CAPACITY,
                 dtype=None):
        if dtype is None:
            self.graphs = list(graphs)
        else:
            self.graphs = [g.astype(dtype) for g in graphs]
        self.radius = radius
        self.labels = None if labels is None else np.asarray(labels)
        self._per_graph: List[Optional[GraphStructure]] = \
            [None] * len(self.graphs)
        self.batch_cache = BatchStructureCache(self._build,
                                               capacity=capacity)

    def structure(self, gid: int) -> GraphStructure:
        """Graph ``gid``'s precomputed structure (built on first use)."""
        if self.radius is None:
            raise ValueError("structure composition disabled (radius=None)")
        out = self._per_graph[gid]
        if out is None:
            out = precompute_graph_structure(self.graphs[gid],
                                             radius=self.radius)
            self._per_graph[gid] = out
        return out

    def batch(self, chunk: np.ndarray,
              ) -> Tuple[GraphBatch, Optional[BatchStructure]]:
        """Collated batch (and composed structure) for an index chunk."""
        return self.batch_cache.get(chunk)

    def _build(self, chunk: np.ndarray,
               ) -> Tuple[GraphBatch, Optional[BatchStructure]]:
        graphs = [self.graphs[int(i)] for i in chunk]
        y = None if self.labels is None else self.labels[chunk]
        if self.radius is None:
            return GraphBatch.from_graphs(graphs, y=y), None
        structures = [self.structure(int(i)) for i in chunk]
        return compose_batch(graphs, structures, y=y)

    def stats(self) -> dict:
        """Batch-cache counters plus per-graph precompute coverage."""
        out = self.batch_cache.stats()
        out["graphs_precomputed"] = sum(
            s is not None for s in self._per_graph)
        out["graphs_total"] = len(self.graphs)
        return out
