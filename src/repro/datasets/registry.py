"""Single entry point for loading any of the twelve benchmarks by name."""

from __future__ import annotations

from .base import GraphDataset, NodeDataset
from .modular import generate_modular_dataset
from .molecules import MOLECULE_CONFIGS
from .node_benchmarks import (NODE_DATASET_NAMES, load_node_dataset,
                              stable_seed)
from .proteins import PROTEIN_CONFIGS

#: Graph-classification dataset names (Table 7 order).
GRAPH_DATASET_NAMES = ("nci1", "nci109", "dd", "mutag", "mutagenicity",
                       "proteins")


def load_graph_dataset(name: str, seed: int = 0) -> GraphDataset:
    """Generate the named graph-classification benchmark deterministically."""
    key = name.lower().replace("&", "").replace("-", "")
    cfg = MOLECULE_CONFIGS.get(key, PROTEIN_CONFIGS.get(key))
    if cfg is not None:
        return generate_modular_dataset(key, cfg, seed=stable_seed(key, seed))
    raise KeyError(f"unknown graph dataset {name!r}; "
                   f"choose from {sorted(GRAPH_DATASET_NAMES)}")


def load_dataset(name: str, seed: int = 0) -> NodeDataset | GraphDataset:
    """Load any benchmark by name (node-task or graph-task)."""
    key = name.lower().replace("&", "").replace("-", "")
    if key in NODE_DATASET_NAMES:
        return load_node_dataset(key, seed=seed)
    return load_graph_dataset(key, seed=seed)
