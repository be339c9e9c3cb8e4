"""Sampled minibatch node training: parity, determinism, counters."""

import numpy as np
import pytest

from repro.datasets import load_node_dataset
from repro.training import NeighborSampler, TrainConfig, minibatch_rng
from repro.training.experiment import make_node_classifier
from repro.training.node_trainer import (NodeClassificationTrainer,
                                         prepare_node_features)
from repro.training.samplers import EVAL_STREAM, MINIBATCH_STREAM, eval_rng


@pytest.fixture(scope="module")
def cora():
    return load_node_dataset("cora", seed=0)


def fit_trainer(dataset, epochs=12, **overrides):
    """``(trainer, model, result)`` of one sampled GCN fit."""
    defaults = dict(epochs=epochs, patience=epochs, seed=0, sampled=True,
                    node_batch_size=128, fanout=5, num_hops=2)
    defaults.update(overrides)
    trainer = NodeClassificationTrainer(TrainConfig(**defaults))
    features = prepare_node_features(dataset)
    model = make_node_classifier("gcn", features.shape[1],
                                 dataset.num_classes, seed=0)
    return trainer, model, trainer.fit(model, dataset)


def fit(dataset, epochs=12, **overrides):
    return fit_trainer(dataset, epochs, **overrides)[2]


def first_plan_bytes(dataset, sub):
    """Bytes of the row plan a sampled GCN fit memoises with ``sub``."""
    model = make_node_classifier("gcn", prepare_node_features(dataset)
                                 .shape[1], dataset.num_classes, seed=0)
    plan = NodeClassificationTrainer._row_plan(
        model, sub, np.ones(sub.num_edges, dtype=np.float32))
    return plan.nbytes


class TestParity:
    def test_sampled_matches_full_batch_accuracy(self, cora):
        full = fit(cora, epochs=20, sampled=False)
        sampled = fit(cora, epochs=20)
        # Same data, same model family; sampling is a different estimator
        # of the same objective, so accuracy lands in the same band.
        assert sampled.test_accuracy >= full.test_accuracy - 0.10
        assert sampled.test_accuracy >= 0.5

    def test_exact_egonets_when_fanout_none(self, cora):
        result = fit(cora, epochs=8, fanout=None)
        assert result.test_accuracy >= 0.5


class TestDeterminism:
    def test_fit_is_bitwise_reproducible(self, cora):
        a = fit(cora, epochs=6)
        b = fit(cora, epochs=6)
        assert a.history == b.history
        assert a.test_accuracy == b.test_accuracy
        assert a.val_accuracy == b.val_accuracy

    def test_seed_changes_trajectory(self, cora):
        a = fit(cora, epochs=5)
        b = fit(cora, epochs=5, seed=1)
        assert a.history != b.history

    def test_rng_streams_are_keyed_and_disjoint(self):
        assert MINIBATCH_STREAM != EVAL_STREAM
        # Same coordinates → same stream; any coordinate change → new one.
        a = minibatch_rng(0, 2, 3).random(4)
        assert np.array_equal(a, minibatch_rng(0, 2, 3).random(4))
        assert not np.array_equal(a, minibatch_rng(0, 2, 4).random(4))
        assert not np.array_equal(a, minibatch_rng(0, 3, 3).random(4))
        assert not np.array_equal(a, eval_rng(0, 3).random(4))


class TestCountersAndResult:
    def test_profile_surfaces_sampler_and_csc_stats(self, cora):
        trainer, model, result = fit_trainer(cora, epochs=3)
        stats = trainer.cache_stats(model)
        sampler = stats["sampler"]
        assert sampler["batches"] > 0
        assert sampler["nodes_sampled"] > 0
        assert sampler["edges_sampled"] > 0
        assert sum(sampler["fanout_hist"]) > 0
        assert "csc_cache" in stats
        assert len(result.epoch_seconds) == result.epochs_run

    def test_steps_per_epoch_math(self, cora):
        train_nodes = cora.splits.train.shape[0]
        result = fit(cora, epochs=2, node_batch_size=100)
        assert result.steps_per_epoch == -(-train_nodes // 100)
        capped = fit(cora, epochs=2, node_batch_size=100,
                     max_steps_per_epoch=2)
        assert capped.steps_per_epoch == 2

    def test_validation_egonets_drawn_once_per_fit(self, cora, monkeypatch):
        import repro.training.node_trainer as node_trainer
        from repro.graph import CSCGraph
        original = CSCGraph.ego_net
        calls = []

        def counted(csc, seeds, *args, **kwargs):
            calls.append(len(seeds))
            return original(csc, seeds, *args, **kwargs)
        monkeypatch.setattr(CSCGraph, "ego_net", counted)
        epochs, steps = 4, 2
        train_calls = epochs * steps
        val_batches = -(-cora.splits.val.size // 128)
        test_batches = -(-cora.splits.test.size // 128)
        kept = fit(cora, epochs=epochs, max_steps_per_epoch=steps)
        assert len(calls) == train_calls + val_batches + test_batches
        # Past the memo budget (here zero) validation redraws every epoch
        # and once more after training, from the same streams: memory is
        # bounded and results do not change.
        calls.clear()
        monkeypatch.setattr(node_trainer, "SAMPLED_EVAL_MEMO_BYTES", 0)
        redrawn = fit(cora, epochs=epochs, max_steps_per_epoch=steps)
        assert len(calls) == (train_calls + (epochs + 1) * val_batches
                              + test_batches)
        assert redrawn.history == kept.history
        assert redrawn.test_accuracy == kept.test_accuracy
        assert redrawn.val_accuracy == kept.val_accuracy
        # A budget holding only the first batch (its subgraph and its row
        # plan) keeps that one and redraws the rest.
        first = original(CSCGraph.from_graph(cora.graph),
                         np.asarray(cora.splits.val[:128]), radius=2,
                         fanout=None, rng=eval_rng(0, 0))
        calls.clear()
        monkeypatch.setattr(node_trainer, "SAMPLED_EVAL_MEMO_BYTES",
                            first.nbytes + first_plan_bytes(cora, first))
        partial = fit(cora, epochs=epochs, max_steps_per_epoch=steps)
        assert len(calls) == (train_calls + 1
                              + (epochs + 1) * (val_batches - 1)
                              + test_batches)
        assert partial.history == kept.history

    def test_eval_memo_budget_counts_row_plans(self, cora, monkeypatch):
        import repro.training.node_trainer as node_trainer
        from repro.graph import CSCGraph
        original = CSCGraph.ego_net
        calls = []

        def counted(csc, seeds, *args, **kwargs):
            calls.append(len(seeds))
            return original(csc, seeds, *args, **kwargs)
        first = original(CSCGraph.from_graph(cora.graph),
                         np.asarray(cora.splits.val[:128]), radius=2,
                         fanout=None, rng=eval_rng(0, 0))
        plan_bytes = first_plan_bytes(cora, first)
        assert plan_bytes > 0
        # Room for the first subgraph but not for its plan: nothing is
        # kept, so validation redraws every batch every epoch.
        monkeypatch.setattr(CSCGraph, "ego_net", counted)
        monkeypatch.setattr(node_trainer, "SAMPLED_EVAL_MEMO_BYTES",
                            first.nbytes + plan_bytes - 1)
        epochs, steps = 3, 1
        val_batches = -(-cora.splits.val.size // 128)
        test_batches = -(-cora.splits.test.size // 128)
        fit(cora, epochs=epochs, max_steps_per_epoch=steps)
        assert len(calls) == (epochs * steps + (epochs + 1) * val_batches
                              + test_batches)

    def test_fanout_histogram_counts_sampled_indegrees(self, cora):
        from repro.graph import CSCGraph
        sampler = NeighborSampler(5, 2)
        csc = CSCGraph.from_graph(cora.graph)
        sub = sampler.sample(csc, np.arange(64), minibatch_rng(0, 0, 0))
        indeg = np.bincount(sub.edge_index[1], minlength=sub.num_nodes)
        expect = np.zeros_like(sampler.fanout_hist)
        np.add.at(expect, np.minimum(indeg, expect.size - 1), 1)
        assert np.array_equal(sampler.fanout_hist, expect)

    def test_adamgnn_trains_on_sampled_subgraphs(self, cora):
        features = prepare_node_features(cora)
        model = make_node_classifier("adamgnn", features.shape[1],
                                     cora.num_classes, seed=0,
                                     num_levels=2)
        config = TrainConfig(epochs=2, patience=2, seed=0, sampled=True,
                             node_batch_size=128, fanout=5, num_hops=2)
        result = NodeClassificationTrainer(config).fit(model, cora)
        assert result.epochs_run == 2
        assert 0.0 <= result.test_accuracy <= 1.0


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(node_batch_size=0), "node_batch_size"),
        (dict(fanout=0), "fanout"),
        (dict(num_hops=0), "num_hops"),
        (dict(max_steps_per_epoch=0), "max_steps_per_epoch"),
    ])
    def test_rejects_bad_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**kwargs)

    def test_fit_builds_sampler_from_config(self, cora):
        trainer, model, _ = fit_trainer(cora, epochs=1, fanout=4,
                                        num_hops=3)
        assert isinstance(trainer._sampler, NeighborSampler)
        stats = trainer.cache_stats(model)["sampler"]
        assert (stats["fanout"], stats["num_hops"]) == (4, 3)

    def test_sampler_argument_validation(self):
        with pytest.raises(ValueError, match="num_hops"):
            NeighborSampler(5, 0)
        with pytest.raises(ValueError, match="fanout"):
            NeighborSampler(0, 2)

