"""Trainer integration tests on tiny budgets (fast but end-to-end)."""

import numpy as np
import pytest

from repro.core import AdamGNNLinkPredictor, AdamGNNNodeClassifier
from repro.datasets import (GraphDataset, NodeDataset, load_graph_dataset,
                            split_graphs, split_links, split_nodes)
from repro.graph import Graph
from repro.models import GNNNodeClassifier, GNNLinkPredictor
from repro.training import (GraphClassificationTrainer,
                            LinkPredictionTrainer,
                            NodeClassificationTrainer, TrainConfig,
                            evaluate_node_model, iterate_batches,
                            make_graph_classifier, prepare_node_features)


@pytest.fixture(scope="module")
def tiny_node_dataset():
    """A small two-block SBM — learnable in a handful of epochs."""
    from repro.datasets import SBMConfig, generate_sbm_graph
    cfg = SBMConfig(num_nodes=90, num_classes=2, communities_per_class=1,
                    subs_per_community=1, p_sub=0.3, p_comm=0.3,
                    p_class=0.3, p_out=0.01, num_features=24,
                    words_per_node=12, topic_noise=0.2)
    graph = generate_sbm_graph(cfg, seed=0)
    return NodeDataset("tiny", graph, 2,
                       split_nodes(graph.num_nodes,
                                   np.random.default_rng(0)))


FAST = TrainConfig(epochs=12, patience=12, seed=0)


class TestNodeTrainer:
    def test_baseline_learns(self, tiny_node_dataset):
        model = GNNNodeClassifier("gcn", 24, 2, hidden=16,
                                  rng=np.random.default_rng(0))
        result = NodeClassificationTrainer(FAST).fit(model,
                                                     tiny_node_dataset)
        assert result.test_accuracy > 0.7
        assert result.epochs_run <= FAST.epochs
        assert len(result.history) == result.epochs_run

    def test_adamgnn_learns(self, tiny_node_dataset):
        model = AdamGNNNodeClassifier(24, 2, hidden=16, num_levels=2,
                                      rng=np.random.default_rng(0))
        result = NodeClassificationTrainer(FAST).fit(model,
                                                     tiny_node_dataset)
        assert result.test_accuracy > 0.7

    def test_ablation_flags_respected(self, tiny_node_dataset):
        cfg = TrainConfig(epochs=3, patience=5, use_kl=False,
                          use_recon=False)
        model = AdamGNNNodeClassifier(24, 2, hidden=16, num_levels=2,
                                      rng=np.random.default_rng(0))
        result = NodeClassificationTrainer(cfg).fit(model,
                                                    tiny_node_dataset)
        assert result.epochs_run == 3

    def test_epoch_seconds_and_cache_stats(self, tiny_node_dataset):
        model = AdamGNNNodeClassifier(24, 2, hidden=16, num_levels=2,
                                      rng=np.random.default_rng(0))
        trainer = NodeClassificationTrainer(
            TrainConfig(epochs=4, patience=4, seed=0, capture=True))
        result = trainer.fit(model, tiny_node_dataset)
        assert len(result.epoch_seconds) == result.epochs_run == 4
        assert all(s > 0 for s in result.epoch_seconds)
        assert sum(result.epoch_seconds) <= result.seconds
        stats = trainer.cache_stats(model)
        assert {"segment_plans", "structure_cache",
                "training_tape"} <= set(stats)
        # Full-batch: mark, capture, then replay from the third epoch.
        assert stats["training_tape"]["hits"] >= 2
        assert "sampler" not in stats      # no sampled fit ran

    def test_evaluate_helper(self, tiny_node_dataset):
        model = GNNNodeClassifier("gcn", 24, 2, hidden=16,
                                  rng=np.random.default_rng(0))
        NodeClassificationTrainer(FAST).fit(model, tiny_node_dataset)
        metrics = evaluate_node_model(model, tiny_node_dataset, "val")
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_prepare_features_degree_fallback(self):
        g = Graph(np.array([[0, 1], [1, 0]]), num_nodes=2,
                  edge_weight=np.ones(2))
        g.y = np.array([0, 1])
        ds = NodeDataset("nofeat", g, 2,
                         split_nodes(2, np.random.default_rng(0)))
        feats = prepare_node_features(ds)
        assert feats.shape[0] == 2
        assert feats.sum(axis=1).tolist() == [1.0, 1.0]


class TestLinkTrainer:
    def test_baseline_beats_random(self, tiny_node_dataset):
        splits = split_links(tiny_node_dataset.graph,
                             np.random.default_rng(0))
        model = GNNLinkPredictor("gcn", 24, hidden=16,
                                 rng=np.random.default_rng(0))
        cfg = TrainConfig(epochs=25, patience=25, seed=0)
        result = LinkPredictionTrainer(cfg).fit(model, tiny_node_dataset,
                                                splits)
        assert result.test_auc > 0.6

    def test_adamgnn_runs(self, tiny_node_dataset):
        splits = split_links(tiny_node_dataset.graph,
                             np.random.default_rng(0))
        model = AdamGNNLinkPredictor(24, hidden=16, num_levels=2,
                                     rng=np.random.default_rng(0))
        result = LinkPredictionTrainer(FAST).fit(model, tiny_node_dataset,
                                                 splits)
        assert 0.0 <= result.test_auc <= 1.0

    def test_default_config_trains_in_float32(self, tiny_node_dataset):
        splits = split_links(tiny_node_dataset.graph,
                             np.random.default_rng(0))
        model = AdamGNNLinkPredictor(24, hidden=16, num_levels=2,
                                     rng=np.random.default_rng(0))
        LinkPredictionTrainer(TrainConfig(epochs=2, seed=0)).fit(
            model, tiny_node_dataset, splits)
        assert {p.data.dtype for p in model.parameters()} == {
            np.dtype(np.float32)}


class TestGraphTrainer:
    @pytest.fixture(scope="class")
    def tiny_graph_dataset(self):
        full = load_graph_dataset("mutag", seed=0)
        subset = full.graphs[:60]
        train, val, test = split_graphs(60, np.random.default_rng(0))
        return GraphDataset("mutag-mini", subset, 2, full.num_features,
                            train_index=train, val_index=val,
                            test_index=test)

    def test_iterate_batches_covers_all(self, tiny_graph_dataset):
        index = tiny_graph_dataset.train_index
        seen = 0
        for batch in iterate_batches(tiny_graph_dataset, index, 16):
            seen += batch.num_graphs
        assert seen == index.shape[0]

    def test_gin_learns_structure(self, tiny_graph_dataset):
        model = make_graph_classifier("gin", tiny_graph_dataset.num_features,
                                      2, seed=0, hidden=32)
        cfg = TrainConfig(epochs=15, patience=15, batch_size=16, seed=0)
        result = GraphClassificationTrainer(cfg).fit(model,
                                                     tiny_graph_dataset)
        assert result.test_accuracy >= 0.5
        assert result.seconds_per_epoch > 0

    def test_adamgnn_head_trains(self, tiny_graph_dataset):
        model = make_graph_classifier("adamgnn",
                                      tiny_graph_dataset.num_features, 2,
                                      seed=0, hidden=16, num_levels=2)
        cfg = TrainConfig(epochs=4, patience=6, batch_size=16, seed=0)
        result = GraphClassificationTrainer(cfg).fit(model,
                                                     tiny_graph_dataset)
        assert 0.0 <= result.test_accuracy <= 1.0


class TestTrainConfigValidation:
    def test_profile_knob_is_gone(self):
        # Per-layer timing comes from the benchmark suite's tracer; the
        # config carries no profiling switch.
        with pytest.raises(TypeError):
            TrainConfig(profile=True)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
