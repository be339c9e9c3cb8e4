"""Synthetic stand-ins for the paper's twelve benchmark datasets."""

from .base import (GraphDataset, LinkTaskSplits, NodeDataset, NodeTaskSplits,
                   sample_negative_edges, split_graphs, split_links,
                   split_nodes)
from .sbm import SBMConfig, generate_sbm_graph
from .node_benchmarks import (NODE_DATASET_CONFIGS, NODE_DATASET_NAMES,
                              load_node_dataset)
from .molecules import MOLECULE_CONFIGS, MoleculeConfig, generate_molecule_dataset
from .proteins import PROTEIN_CONFIGS, ProteinConfig, generate_protein_dataset
from .registry import GRAPH_DATASET_NAMES, load_dataset, load_graph_dataset
from .hetero import (HeteroSBMConfig, generate_hetero_graph,
                     load_hetero_dataset)
from .modular import (ModularGraphConfig, build_modular_graph,
                      generate_modular_dataset)
from .statistics import (GraphDatasetStats, NodeDatasetStats,
                         format_graph_stats_table, format_node_stats_table,
                         graph_dataset_stats, node_dataset_stats)

__all__ = [
    "GraphDataset", "LinkTaskSplits", "NodeDataset", "NodeTaskSplits",
    "sample_negative_edges", "split_graphs", "split_links", "split_nodes",
    "SBMConfig", "generate_sbm_graph",
    "NODE_DATASET_CONFIGS", "NODE_DATASET_NAMES", "load_node_dataset",
    "MOLECULE_CONFIGS", "MoleculeConfig", "generate_molecule_dataset",
    "PROTEIN_CONFIGS", "ProteinConfig", "generate_protein_dataset",
    "GRAPH_DATASET_NAMES", "load_dataset", "load_graph_dataset",
    "HeteroSBMConfig", "generate_hetero_graph", "load_hetero_dataset",
    "ModularGraphConfig", "build_modular_graph", "generate_modular_dataset",
    "GraphDatasetStats", "NodeDatasetStats",
    "format_graph_stats_table", "format_node_stats_table",
    "graph_dataset_stats", "node_dataset_stats",
]
