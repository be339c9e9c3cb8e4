"""Graph data structures and algorithms."""

from .graph import Graph
from .batch import GraphBatch
from .algorithms import (adjacency_lists, bfs_distances, connected_components,
                         is_connected, k_hop_reachability, largest_component,
                         triangle_count)
from .cache import BatchStructureCache, StructureCache
from .csc import CSCGraph, SampledSubgraph, csc_cache_stats, sorted_unique
from .blocks import MessageFlowBlock, RowPlan, build_row_plan
from .normalize import (degree_features, gcn_edge_weight_parts,
                        gcn_normalization, normalize_edges,
                        row_normalize_features)

__all__ = [
    "Graph", "GraphBatch", "BatchStructureCache", "StructureCache",
    "CSCGraph", "SampledSubgraph", "csc_cache_stats", "sorted_unique",
    "MessageFlowBlock", "RowPlan", "build_row_plan",
    "adjacency_lists", "bfs_distances", "connected_components",
    "is_connected", "k_hop_reachability", "largest_component",
    "triangle_count",
    "degree_features", "gcn_edge_weight_parts", "gcn_normalization",
    "normalize_edges", "row_normalize_features",
]
