"""Training harness: trainers, metrics, early stopping, experiment runner."""

from .config import TrainConfig
from .metrics import accuracy, mean_and_std, roc_auc
from .early_stopping import EarlyStopping
from .node_trainer import (NodeClassificationTrainer, NodeTrainResult,
                           evaluate_node_model, prepare_node_features)
from .link_trainer import LinkPredictionTrainer, LinkTrainResult
from .graph_trainer import (GraphClassificationTrainer, GraphTrainResult,
                            iterate_batches)
from .samplers import NeighborSampler, minibatch_rng
from .sharding import (ShardAssignment, make_shards, shard_dropout_rngs,
                       shard_sampler, worker_shards)
from .dataparallel import ShardedTrainer
from .experiment import (ADAMGNN_LEVELS_GC, ADAMGNN_LEVELS_LP,
                         ADAMGNN_LEVELS_NC, ExperimentResult,
                         GRAPH_MODEL_NAMES, NODE_MODEL_NAMES,
                         format_results_table, make_graph_classifier,
                         make_link_predictor, make_node_classifier,
                         run_graph_classification, run_link_prediction,
                         run_node_classification)

__all__ = [
    "TrainConfig", "accuracy", "mean_and_std", "roc_auc", "EarlyStopping",
    "NodeClassificationTrainer", "NodeTrainResult", "evaluate_node_model",
    "prepare_node_features",
    "LinkPredictionTrainer", "LinkTrainResult",
    "GraphClassificationTrainer", "GraphTrainResult", "iterate_batches",
    "NeighborSampler", "minibatch_rng",
    "ShardAssignment", "ShardedTrainer", "make_shards",
    "shard_dropout_rngs", "shard_sampler", "worker_shards",
    "ADAMGNN_LEVELS_GC", "ADAMGNN_LEVELS_LP", "ADAMGNN_LEVELS_NC",
    "ExperimentResult", "GRAPH_MODEL_NAMES", "NODE_MODEL_NAMES",
    "format_results_table", "make_graph_classifier", "make_link_predictor",
    "make_node_classifier", "run_graph_classification",
    "run_link_prediction", "run_node_classification",
]
