"""The trainer's minibatch structure pipeline (collated-batch cache).

Three behaviours the perf work must not change:

1. ``batch_cache=False`` (plain per-epoch collation) and the default
   cached pipeline train to the *same* model — composition is exact, so
   switching the pipeline off is purely a speed knob;
2. the fixed val/test chunks (and the seeded, recurring train chunks)
   are cache hits from the second pass onward;
3. ``trainer.cache_stats(model)`` surfaces every cache's hit/miss
   counters after a plain ``fit``, so effectiveness is observable
   without a flag.
"""

import numpy as np
import pytest

from repro.core import AdamGNNGraphClassifier
from repro.datasets import GraphDataset, load_graph_dataset, split_graphs
from repro.training import (GraphClassificationTrainer, TrainConfig,
                            make_graph_classifier)


@pytest.fixture(scope="module")
def dataset():
    full = load_graph_dataset("mutag", seed=0)
    subset = full.graphs[:48]
    train, val, test = split_graphs(48, np.random.default_rng(0))
    return GraphDataset("mutag-mini", subset, 2, full.num_features,
                        train_index=train, val_index=val, test_index=test)


def fit_adamgnn(dataset, **config_overrides):
    defaults = dict(epochs=2, patience=6, batch_size=16, seed=0)
    defaults.update(config_overrides)
    model = AdamGNNGraphClassifier(dataset.num_features, 2, hidden=16,
                                   num_levels=2,
                                   rng=np.random.default_rng(0))
    trainer = GraphClassificationTrainer(TrainConfig(**defaults))
    result = trainer.fit(model, dataset)
    return model, trainer, result


def test_batch_cache_equals_plain_collation(dataset):
    """Cached pipeline and per-epoch recomputation train identically.

    Composition is bit-exact and the chunk sequence is seeded, so the
    two pipelines see identical batches in identical order — the trained
    parameters must agree to float-noise tolerance.
    """
    cached_model, _, cached = fit_adamgnn(dataset, batch_cache=True)
    plain_model, _, plain = fit_adamgnn(dataset, batch_cache=False)
    assert cached.epochs_run == plain.epochs_run
    for a, b in zip(cached_model.parameters(), plain_model.parameters()):
        assert np.allclose(a.data, b.data, atol=1e-10)
    assert cached.val_accuracy == plain.val_accuracy
    assert cached.test_accuracy == plain.test_accuracy


def test_eval_chunks_hit_from_second_pass(dataset):
    model, trainer, result = fit_adamgnn(dataset, epochs=3)
    batch = trainer.cache_stats()["batch_cache"]
    # Train chunks are reshuffled per epoch, but the val chunks repeat
    # every epoch: epochs 2..N (and the final val/test evaluations) must
    # be hits — at least one hit per epoch after the first.
    assert batch["hits"] >= result.epochs_run - 1
    # Re-evaluating the fixed splits now is a pure cache hit.
    before = dict(batch)
    trainer.evaluate(model, dataset, dataset.val_index)
    trainer.evaluate(model, dataset, dataset.test_index)
    after = trainer.cache_stats()["batch_cache"]
    assert after["misses"] == before["misses"]
    assert after["hits"] > before["hits"]
    # The dataset has 48 graphs; every graph's structure was precomputed
    # through the per-graph store exactly once, however many chunks
    # contained it.
    assert after["graphs_precomputed"] == len(dataset.graphs)


def test_profile_surfaces_cache_stats(dataset):
    model, trainer, _ = fit_adamgnn(dataset, epochs=2)
    stats = trainer.cache_stats(model)
    for key in ("batch_cache", "structure_cache"):
        assert key in stats
        counters = stats[key]
        assert {"hits", "misses", "entries", "capacity"} <= set(counters)
    assert stats["batch_cache"]["hits"] > 0


def test_baseline_models_skip_structure_composition(dataset):
    """Non-AdamGNN models get cached collation but no composed structure."""
    model = make_graph_classifier("gin", dataset.num_features, 2, seed=0,
                                  hidden=16)
    trainer = GraphClassificationTrainer(
        TrainConfig(epochs=2, patience=6, batch_size=16, seed=0))
    trainer.fit(model, dataset)
    structures = trainer._structures
    assert structures is not None
    radius, _dtype = structures[1]
    assert radius is None                 # radius: composition disabled
    batch, structure = structures[2].batch(dataset.val_index)
    assert structure is None


def test_steady_state_epoch_is_all_hits(dataset):
    """From the second pass on, a fixed chunk sequence performs zero
    collations."""
    model = AdamGNNGraphClassifier(dataset.num_features, 2, hidden=16,
                                   num_levels=2,
                                   rng=np.random.default_rng(0))
    trainer = GraphClassificationTrainer(
        TrainConfig(epochs=1, batch_size=16, seed=0))
    trainer.evaluate(model, dataset, dataset.val_index)    # warm: misses
    before = trainer.cache_stats()["batch_cache"]
    trainer.evaluate(model, dataset, dataset.val_index)    # steady: hits
    after = trainer.cache_stats()["batch_cache"]
    assert after["misses"] == before["misses"]
    assert after["hits"] > before["hits"]
