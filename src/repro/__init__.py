"""repro — a from-scratch reproduction of AdamGNN.

"Adaptive Multi-grained Graph Neural Networks" (Zhong, Li & Pang), presented
at ICDE 2024 as the extended abstract "Multi-Grained Semantics-Aware Graph
Neural Networks".

Subpackages
-----------
``repro.tensor``
    NumPy-backed reverse-mode autograd engine (the computational substrate).
``repro.nn`` / ``repro.optim``
    Neural-network modules and optimisers.
``repro.graph``
    Graph containers, batching, algorithms, normalisation.
``repro.datasets``
    Deterministic synthetic stand-ins for the twelve benchmarks.
``repro.layers`` / ``repro.pooling`` / ``repro.models``
    Message-passing layers, baseline pooling operators and baseline models.
``repro.core``
    AdamGNN itself: adaptive pooling, unpooling, flyback, losses, heads.
``repro.training``
    Trainers, metrics and the experiment runner behind every benchmark.
``repro.inference``
    Grad-free serving engine (``Predictor``) with structural plan capture.
"""

from . import analysis, core, datasets, graph, inference, layers, models
from . import nn, optim, pooling, tensor, training
from .analysis import SanitizerError, sanitize
from .core import (AdamGNN, AdamGNNGraphClassifier, AdamGNNLinkPredictor,
                   AdamGNNNodeClassifier)
from .graph import Graph, GraphBatch
from .inference import Predictor
from .tensor import Tensor

__version__ = "1.0.0"

# REPRO_SANITIZE=1 arms the runtime sanitizers for the whole process (the
# sanitized CI tier runs the full test suite this way).  The enable is
# never paired with a disable: it is meant to outlive the import.
if analysis.env_requested():
    analysis.enable_sanitizer()

__all__ = [
    "analysis", "core", "datasets", "graph", "inference", "layers",
    "models", "nn", "optim", "pooling", "tensor", "training",
    "AdamGNN", "AdamGNNGraphClassifier", "AdamGNNLinkPredictor",
    "AdamGNNNodeClassifier", "Graph", "GraphBatch", "Predictor",
    "SanitizerError", "Tensor", "sanitize", "__version__",
]
