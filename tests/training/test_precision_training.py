"""Float32 training: accuracy parity with float64 and bitwise replay.

The compute-precision contract at the training level:

* ``TrainConfig(dtype=...)`` selects the precision end to end — model
  parameters, collated batches, precomputed structure and optimiser state
  all live at that dtype (Adam's second moments stay float64 by design);
* float32 and float64 runs of the same seeded configuration reach
  matching accuracy over a few epochs — half the memory traffic, same
  learning behaviour.
"""

import numpy as np
import pytest

from repro.core import AdamGNNGraphClassifier
from repro.datasets import GraphDataset, load_graph_dataset, split_graphs
from repro.training import GraphClassificationTrainer, TrainConfig


@pytest.fixture(scope="module")
def dataset():
    full = load_graph_dataset("mutag", seed=0)
    subset = full.graphs[:48]
    train, val, test = split_graphs(48, np.random.default_rng(0))
    return GraphDataset("mutag-mini", subset, 2, full.num_features,
                        train_index=train, val_index=val, test_index=test)


def fit(dataset, **overrides):
    config = dict(epochs=3, patience=6, batch_size=16, seed=0)
    config.update(overrides)
    model = AdamGNNGraphClassifier(dataset.num_features, 2, hidden=16,
                                   num_levels=2,
                                   rng=np.random.default_rng(0))
    trainer = GraphClassificationTrainer(TrainConfig(**config))
    result = trainer.fit(model, dataset)
    return model, result


def test_training_default_dtype_is_float32(dataset):
    model, result = fit(dataset, epochs=1)
    for param in model.parameters():
        assert param.data.dtype == np.float32
    assert 0.0 <= result.val_accuracy <= 1.0


def test_float64_remains_selectable(dataset):
    model, _ = fit(dataset, epochs=1, dtype="float64")
    for param in model.parameters():
        assert param.data.dtype == np.float64


def test_float32_matches_float64_accuracy(dataset):
    """Same seed, same protocol: the float32 engine must learn like the
    float64 one.  The val/test splits hold 5 graphs each, so 'matching'
    means within one graph's worth of accuracy."""
    _, r32 = fit(dataset, dtype="float32")
    _, r64 = fit(dataset, dtype="float64")
    assert r32.epochs_run == r64.epochs_run
    assert abs(r32.val_accuracy - r64.val_accuracy) <= 0.2
    assert abs(r32.test_accuracy - r64.test_accuracy) <= 0.2



def test_link_prediction_forward_runs_in_config_dtype():
    """The link trainer hands the model its features at the configured
    dtype, so a float32 fit never runs a float64 forward."""
    from repro.core import AdamGNNLinkPredictor
    from repro.datasets import (NodeDataset, SBMConfig, generate_sbm_graph,
                                split_links, split_nodes)
    from repro.training import LinkPredictionTrainer
    cfg = SBMConfig(num_nodes=60, num_classes=2, communities_per_class=1,
                    subs_per_community=1, p_sub=0.3, p_comm=0.3,
                    p_class=0.3, p_out=0.01, num_features=12,
                    words_per_node=6, topic_noise=0.2)
    graph = generate_sbm_graph(cfg, seed=0)
    dataset = NodeDataset("tiny", graph, 2, split_nodes(
        graph.num_nodes, np.random.default_rng(0)))
    splits = split_links(graph, np.random.default_rng(0))
    model = AdamGNNLinkPredictor(12, hidden=8, num_levels=2,
                                 rng=np.random.default_rng(0))
    seen = []
    forward = model.forward

    def recording_forward(x, *args, **kwargs):
        seen.append(x.data.dtype)
        return forward(x, *args, **kwargs)

    model.forward = recording_forward
    LinkPredictionTrainer(TrainConfig(epochs=1, patience=1, seed=0,
                                      dtype="float32")).fit(
        model, dataset, splits)
    assert seen and set(seen) == {np.dtype(np.float32)}
