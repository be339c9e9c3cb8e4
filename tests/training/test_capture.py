"""Training-step capture registry tests.

The PR's top-level contract: training with ``TrainConfig(capture=True)``
is **bitwise identical** to uncaptured training — same parameters, same
history — for the graph trainer (AdamGNN and pooling baselines), the
node trainer, and under ``naive_kernels``.  Plus the registry mechanics:
second-visit promotion, invalidation on structure/dtype change, and the
TapeInvalid fallback restoring RNG state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdamGNNNodeClassifier
from repro.datasets import GraphDataset, NodeDataset, load_graph_dataset, \
    load_node_dataset, split_graphs, split_nodes
from repro.optim import Adam, clip_grad_norm
from repro.tensor import (Tensor, clear_plan_cache, default_dtype,
                          naive_kernels, relu)
from repro.tensor.tape import TapeInvalid
from repro.training import (GraphClassificationTrainer,
                            NodeClassificationTrainer, TrainConfig,
                            make_graph_classifier, make_node_classifier,
                            prepare_node_features)
from repro.training.capture import StepCapture, model_rngs


@pytest.fixture(scope="module")
def graph_dataset():
    full = load_graph_dataset("mutag", seed=0)
    subset = full.graphs[:48]
    train, val, test = split_graphs(48, np.random.default_rng(0))
    return GraphDataset("mutag-mini", subset, 2, full.num_features,
                        train_index=train, val_index=val, test_index=test)


@pytest.fixture(scope="module")
def node_dataset():
    from repro.datasets import SBMConfig, generate_sbm_graph
    cfg = SBMConfig(num_nodes=80, num_classes=2, communities_per_class=1,
                    subs_per_community=1, p_sub=0.3, p_comm=0.3,
                    p_class=0.3, p_out=0.01, num_features=16,
                    words_per_node=10, topic_noise=0.2)
    graph = generate_sbm_graph(cfg, seed=0)
    return NodeDataset("tiny", graph, 2,
                       split_nodes(graph.num_nodes,
                                   np.random.default_rng(0)))


def _graph_run(name, dataset, capture, epochs=4):
    clear_plan_cache()   # plan/scatter state must not leak between arms
    model = make_graph_classifier(name, dataset.num_features, 2, seed=0,
                                  hidden=16, num_levels=2)
    cfg = TrainConfig(epochs=epochs, patience=epochs + 2, batch_size=16,
                      seed=0, capture=capture)
    trainer = GraphClassificationTrainer(cfg)
    result = trainer.fit(model, dataset)
    params = [p.data.copy() for p in model.parameters()]
    return result, params, trainer


# ---------------------------------------------------------------------------
# Bitwise parity: captured training must be indistinguishable
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ["adamgnn", "topkpool", "sagpool"])
def test_graph_training_parity_bitwise(name, graph_dataset):
    # fit() draws fresh chunk permutations per epoch, so most keys never
    # recur and the second-visit policy leaves steps uncaptured — the
    # point here is that flipping capture on cannot change training at
    # all.  Replay engagement is asserted separately on the fixed-order
    # epoch loop below.
    ref, ref_params, _ = _graph_run(name, graph_dataset, capture=False)
    got, got_params, trainer = _graph_run(name, graph_dataset, capture=True)
    assert got.history == ref.history
    assert len(ref_params) == len(got_params)
    for a, b in zip(ref_params, got_params):
        np.testing.assert_array_equal(a, b)
    assert trainer.cache_stats()["training_tape"]["fallbacks"] == 0


@pytest.mark.parametrize("name", ["adamgnn", "topkpool", "sagpool"])
def test_graph_replayed_epochs_match_bitwise(name, graph_dataset):
    # Batches drawn without an RNG come in index order, so the same
    # batch keys recur every epoch: mark (1st), capture (2nd), replay
    # (3rd on).  Three replayed epochs of the trainer's own step must
    # leave parameters bitwise equal to the uncaptured arm's.
    def run(capture, epochs=5):
        clear_plan_cache()
        model = make_graph_classifier(name, graph_dataset.num_features, 2,
                                      seed=0, hidden=16, num_levels=2)
        cfg = TrainConfig(batch_size=16, seed=0, capture=capture)
        trainer = GraphClassificationTrainer(cfg)
        model.astype(cfg.dtype)
        optimizer = Adam(model.parameters(), lr=cfg.lr,
                         weight_decay=cfg.weight_decay)
        rng = np.random.default_rng(307)
        rngs = [rng] + model_rngs(model)
        structures = trainer._structures_for(model, graph_dataset)
        with default_dtype(cfg.dtype):
            for _ in range(epochs):
                model.train()
                for batch, structure in trainer._batches(
                        structures, graph_dataset,
                        graph_dataset.train_index):
                    model.zero_grad()
                    trainer._train_step(model, batch, structure, rng, rngs)
                    clip_grad_norm(model.parameters(), cfg.grad_clip)
                    optimizer.step()
        return [p.data.copy() for p in model.parameters()], trainer

    ref_params, _ = run(False)
    got_params, trainer = run(True)
    for a, b in zip(ref_params, got_params):
        np.testing.assert_array_equal(a, b)
    stats = trainer.cache_stats()["training_tape"]
    assert stats["hits"] > 0          # replay engaged
    assert stats["fallbacks"] == 0


def test_node_training_parity_bitwise(node_dataset):
    results = []
    for capture in (False, True):
        clear_plan_cache()
        model = AdamGNNNodeClassifier(16, 2, hidden=16, num_levels=2,
                                      rng=np.random.default_rng(0))
        cfg = TrainConfig(epochs=5, patience=7, seed=0, capture=capture)
        trainer = NodeClassificationTrainer(cfg)
        result = trainer.fit(model, node_dataset)
        results.append((result, [p.data.copy()
                                 for p in model.parameters()], trainer))
    (ref, ref_params, _), (got, got_params, trainer) = results
    assert got.history == ref.history
    for a, b in zip(ref_params, got_params):
        np.testing.assert_array_equal(a, b)
    stats = trainer._capture.stats()
    # full-batch: mark, capture, then replay from the third epoch on
    assert stats["hits"] >= 2
    assert stats["fallbacks"] == 0


def test_full_batch_arena_growth_is_bounded():
    """After the capture epoch, replay draws its buffers from the
    training arena: a 6-epoch full-batch AdamGNN Cora fit adds at most 8
    arena allocations past those of a 2-epoch (mark + capture) probe of
    the same seed.  Seeded fits are bitwise repeatable, so the probe's
    count is exactly what the longer fit allocated by its capture epoch.
    The arena can still grow when the learned selection drifts across a
    size class (2 buffers by epoch 6, 14 by epoch 12 with seed 0), so
    the bound holds for fits of at most 11 epochs."""
    data = load_node_dataset("cora", seed=0)
    features = prepare_node_features(data)

    def arena(epochs):
        model = make_node_classifier("adamgnn", features.shape[1],
                                     data.num_classes, seed=0)
        trainer = NodeClassificationTrainer(TrainConfig(
            epochs=epochs, patience=epochs, seed=0, capture=True))
        trainer.fit(model, data)
        return trainer.cache_stats()["training_tape"]

    at_capture = arena(2)["arena_allocations"]
    stats = arena(6)
    assert stats["hits"] > 0, "replay did not engage"
    assert stats["fallbacks"] == 0
    assert stats["arena_allocations"] - at_capture <= 8


def test_parity_under_naive_kernels(graph_dataset):
    with naive_kernels():
        ref, ref_params, _ = _graph_run("adamgnn", graph_dataset,
                                        capture=False, epochs=3)
        got, got_params, _ = _graph_run("adamgnn", graph_dataset,
                                        capture=True, epochs=3)
    assert got.history == ref.history
    for a, b in zip(ref_params, got_params):
        np.testing.assert_array_equal(a, b)


def test_parity_float64(graph_dataset):
    def run(capture):
        clear_plan_cache()
        model = make_graph_classifier("adamgnn",
                                      graph_dataset.num_features, 2,
                                      seed=0, hidden=16, num_levels=2)
        cfg = TrainConfig(epochs=3, patience=5, batch_size=16, seed=0,
                          dtype="float64", capture=capture)
        result = GraphClassificationTrainer(cfg).fit(model, graph_dataset)
        return result, [p.data.copy() for p in model.parameters()]

    ref, ref_params = run(False)
    got, got_params = run(True)
    assert got.history == ref.history
    for a, b in zip(ref_params, got_params):
        assert a.dtype == np.float64
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Registry mechanics on a synthetic step
# ---------------------------------------------------------------------------
def _make_step(w, n_ops=1):
    def forward_loss():
        loss = None
        for _ in range(n_ops):
            h = relu(w * 2.0)
            term = (h * h).sum()
            loss = term if loss is None else loss + term
        return loss
    return forward_loss


def test_second_visit_policy():
    cap = StepCapture()
    w = Tensor(np.ones((4, 4)), requires_grad=True)
    pins = (object(),)
    for expected in [dict(hits=0, misses=0, uncaptured_steps=1),
                     dict(hits=0, misses=1, uncaptured_steps=1),
                     dict(hits=1, misses=1, uncaptured_steps=1),
                     dict(hits=2, misses=1, uncaptured_steps=1)]:
        w.grad = None
        cap.run_step(pins, np.float64, [], _make_step(w))
        stats = cap.stats()
        for key, value in expected.items():
            assert stats[key] == value, (key, stats)


def test_weight_updates_keep_replaying():
    cap = StepCapture()
    w = Tensor(np.ones((4, 4)), requires_grad=True)
    pins = (object(),)
    grads = []
    for _ in range(4):
        w.grad = None
        cap.run_step(pins, np.float64, [], _make_step(w))
        grads.append(w.grad.copy())
        w.data = w.data - 0.1 * w.grad    # weights move; structure doesn't
    assert cap.stats()["fallbacks"] == 0
    assert cap.stats()["hits"] == 2
    # gradients track the moving weights (values differ step to step)
    assert not np.array_equal(grads[0], grads[-1])


def test_structure_change_recaptures():
    cap = StepCapture()
    w = Tensor(np.ones((4, 4)), requires_grad=True)
    pins_a, pins_b = (object(),), (object(),)
    for _ in range(3):
        w.grad = None
        cap.run_step(pins_a, np.float64, [], _make_step(w))
    assert cap.stats()["hits"] == 1
    # a structure-cache miss produces a new pinned object => new key:
    # the first visit runs uncaptured, no replay against the stale tape
    w.grad = None
    cap.run_step(pins_b, np.float64, [], _make_step(w))
    assert cap.stats()["uncaptured_steps"] == 2
    assert cap.stats()["fallbacks"] == 0


def test_dtype_change_is_a_different_key():
    cap = StepCapture()
    pins = (object(),)
    w64 = Tensor(np.ones((4, 4)), requires_grad=True)
    for _ in range(3):
        w64.grad = None
        cap.run_step(pins, np.float64, [], _make_step(w64))
    assert cap.stats()["hits"] == 1
    # same pins, new dtype (what Module.astype + TrainConfig(dtype=...)
    # produce): must not replay the float64 tape
    w32 = Tensor(np.ones((4, 4), np.float32), dtype=np.float32,
                 requires_grad=True)
    w32.grad = None
    cap.run_step(pins, np.float32, [], _make_step(w32))
    stats = cap.stats()
    assert stats["fallbacks"] == 0
    assert stats["uncaptured_steps"] == 2


def test_op_sequence_divergence_falls_back_and_restores_rng():
    cap = StepCapture()
    w = Tensor(np.ones((4, 4)), requires_grad=True)
    pins = (object(),)
    rng = np.random.default_rng(7)
    draws = []

    state = {"n_ops": 1}

    def forward_loss():
        draws.append(rng.random())
        return _make_step(w, state["n_ops"])()

    for _ in range(3):
        w.grad = None
        cap.run_step(pins, np.float64, [rng], forward_loss)
    assert cap.stats()["hits"] == 1
    # the op sequence diverges: replay raises TapeInvalid internally,
    # the step falls back, and the RNG is rewound so the fallback pass
    # redraws the same number (one effective draw for the step)
    state["n_ops"] = 2
    w.grad = None
    before = len(draws)
    cap.run_step(pins, np.float64, [rng], forward_loss)
    stats = cap.stats()
    assert stats["fallbacks"] == 1
    assert stats["invalidations"] == 1
    assert len(draws) == before + 2          # failed attempt + fallback
    assert draws[-1] == draws[-2]            # same state => same draw


def test_capture_entry_capacity_evicts():
    cap = StepCapture(capacity=1)
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    pins_a, pins_b = (object(),), (object(),)
    for pins in (pins_a, pins_a, pins_b, pins_b):
        w.grad = None
        cap.run_step(pins, np.float64, [], _make_step(w))
    assert cap.stats()["entries"] == 1
    assert cap.stats()["invalidations"] == 1


def test_stats_include_arena_counters():
    stats = StepCapture().stats()
    for key in ("grad_arena_bytes", "arena_allocations", "arena_hits",
                "tape_nodes", "marked_keys"):
        assert key in stats


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------
def test_capture_resolves_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_TRAIN_CAPTURE", "0")
    assert TrainConfig().capture is False
    monkeypatch.setenv("REPRO_TRAIN_CAPTURE", "1")
    assert TrainConfig().capture is True
    for spelling, expected in (("false", False), ("OFF", False),
                               ("True", True), ("on", True)):
        monkeypatch.setenv("REPRO_TRAIN_CAPTURE", spelling)
        assert TrainConfig().capture is expected
    # A malformed value raises rather than silently picking a side.
    for malformed in ("no", "2", ""):
        monkeypatch.setenv("REPRO_TRAIN_CAPTURE", malformed)
        with pytest.raises(ValueError, match="REPRO_TRAIN_CAPTURE"):
            TrainConfig()
    assert TrainConfig(capture=True).capture is True  # explicit wins
    monkeypatch.delenv("REPRO_TRAIN_CAPTURE")
    assert TrainConfig().capture is True      # default on
    assert TrainConfig(capture=False).capture is False
