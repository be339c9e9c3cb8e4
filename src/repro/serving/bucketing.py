"""Size-band bucketing policy for micro-batch coalescing.

Requests are coalesced per *bucket* before dispatch, and the bucket key is
a quantised (node count, edge count) band of the requested graph.  The
band serves two masters:

* **Collation stability.**  Flushed chunks are sorted-unique graph-id
  arrays, and :class:`~repro.graph.cache.BatchStructureCache` keys on
  chunk *content* — so the fewer distinct chunk compositions a bucket can
  emit, the sooner every flush is a cache hit whose collated batch object
  then replays its captured structure plan in the
  :class:`~repro.inference.Predictor` plan LRU.  Under load a bucket's
  flush converges on "every member with a pending request", which for a
  bounded eval universe is a handful of recurring compositions.
* **Padding-free batching without shape chaos.**  This substrate
  concatenates graphs block-diagonally (no padding waste), but grouping
  size-similar graphs keeps per-flush work even, so one oversized graph
  does not stretch the latency of 31 tiny ones sharing its batch.

The policy is deliberately a tiny, separately testable object: the server
asks it once per dataset for a per-graph key table and never inspects
graph structure afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

BucketKey = Tuple[int, int]


@dataclass(frozen=True)
class SizeBucketPolicy:
    """Quantise graphs into (node-band, edge-band) buckets.

    Parameters
    ----------
    node_band:
        Width of the node-count band (graphs with ``num_nodes`` in
        ``[k*node_band, (k+1)*node_band)`` share a node band).
    edge_band:
        Width of the edge-count band, over *directed* edge slots
        (``edge_index.shape[1]``), matching :class:`~repro.graph.Graph`.
    """

    node_band: int = 16
    edge_band: int = 128

    def __post_init__(self) -> None:
        if self.node_band < 1 or self.edge_band < 1:
            raise ValueError(
                f"band widths must be >= 1, got node_band={self.node_band} "
                f"edge_band={self.edge_band}")

    def key(self, num_nodes: int, num_edges: int) -> BucketKey:
        """The bucket key for one graph's size."""
        return (num_nodes // self.node_band, num_edges // self.edge_band)

    def table(self, graphs: Sequence) -> List[BucketKey]:
        """Per-graph key table for a dataset's member graphs."""
        return [self.key(g.num_nodes, g.edge_index.shape[1])
                for g in graphs]
