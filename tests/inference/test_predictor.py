"""The serving engine: Predictor parity, arenas, and plan capture."""

import numpy as np
import pytest

from repro.core import AdamGNNGraphClassifier, AdamGNNNodeClassifier
from repro.datasets import GraphDataset, load_graph_dataset, split_graphs
from repro.inference import Predictor
from repro.tensor import Tensor, default_dtype, naive_kernels
from repro.training import GraphClassificationTrainer, TrainConfig
from repro.training.graph_trainer import _model_forward


@pytest.fixture(scope="module")
def dataset():
    full = load_graph_dataset("mutag", seed=0)
    subset = full.graphs[:32]
    train, val, test = split_graphs(32, np.random.default_rng(0))
    return GraphDataset("mutag-mini", subset, 2, full.num_features,
                        train_index=train, val_index=val, test_index=test)


def _serve(dataset, dtype):
    """A model, its trainer-collated eval pairs, and reference logits."""
    model = AdamGNNGraphClassifier(dataset.num_features, 2, hidden=16,
                                   num_levels=2,
                                   rng=np.random.default_rng(3))
    trainer = GraphClassificationTrainer(
        TrainConfig(dtype=dtype, batch_size=8, seed=0))
    model.astype(dtype).eval()
    structures = trainer._structures_for(model, dataset)
    eval_index = np.concatenate([dataset.val_index, dataset.test_index])
    pairs = list(trainer._batches(structures, dataset, eval_index))
    with default_dtype(dtype):
        reference = [_model_forward(model, b, s)[0].data.copy()
                     for b, s in pairs]
    return model, trainer, dataset, pairs, reference


@pytest.fixture(scope="module")
def served(dataset):
    return _serve(dataset, "float32")


class TestGraphServing:
    def test_bitwise_parity_capture_and_replay(self, served):
        model, _, _, pairs, reference = served
        predictor = Predictor(model)
        captured = [predictor.predict_batch(b, s) for b, s in pairs]
        replayed = [predictor.predict_batch(b, s) for b, s in pairs]
        for ref, cap, rep in zip(reference, captured, replayed):
            assert (cap == ref).all()
            assert (rep == ref).all()

    def test_bitwise_parity_float64_naive_kernels(self, dataset):
        with naive_kernels():
            model, _, _, pairs, reference = _serve(dataset, "float64")
            predictor = Predictor(model)
            captured = [predictor.predict_batch(b, s) for b, s in pairs]
            replayed = [predictor.predict_batch(b, s) for b, s in pairs]
        for ref, cap, rep in zip(reference, captured, replayed):
            assert ref.dtype == np.float64
            assert (cap == ref).all()
            assert (rep == ref).all()

    def test_steady_state_allocates_nothing(self, served):
        model, _, _, pairs, _ = served
        predictor = Predictor(model)
        for batch, structure in pairs:
            predictor.predict_batch(batch, structure)
        captured = predictor.stats()
        assert captured["captured_structures"] > 0
        assert captured["structure_hits"] == 0
        for _ in range(3):
            for batch, structure in pairs:
                predictor.predict_batch(batch, structure)
        stats = predictor.stats()
        # Every repeat replays the captured plans: nothing new is
        # captured, and each replay serves every captured stage.
        assert stats["captured_structures"] == captured["captured_structures"]
        assert stats["structure_hits"] == 3 * captured["captured_structures"]
        assert stats["allocations"] == 0
        assert stats["arenas"] == len(pairs)

    def test_accuracy_matches_trainer_evaluate(self, served):
        model, trainer, dataset, _, _ = served
        predictor = Predictor(model)
        for index in (dataset.val_index, dataset.test_index):
            expected = trainer.evaluate(model, dataset, index)
            assert predictor.evaluate_accuracy(
                dataset, index, batch_size=8) == pytest.approx(expected)

    def test_predict_returns_labels(self, served):
        model, _, dataset, _, _ = served
        predictor = Predictor(model)
        labels = predictor.predict(dataset, dataset.val_index, batch_size=8)
        assert labels.shape == (dataset.val_index.shape[0],)
        assert set(np.unique(labels)) <= {0, 1}

    def test_invalidate_recaptures_after_weight_change(self, served):
        model, _, _, pairs, _ = served
        predictor = Predictor(model)
        batch, structure = pairs[0]
        before = predictor.predict_batch(batch, structure)
        # Nudge a weight: captured plans are stale by contract ...
        param = model.parameters()[0]
        param.data += np.float32(0.25)
        try:
            predictor.invalidate()
            assert predictor.stats()["arenas"] == 0
            after = predictor.predict_batch(batch, structure)
            # ... and re-capture serves the new weights' logits.
            model.eval()
            with default_dtype("float32"):
                fresh = _model_forward(model, batch, structure)[0].data
            assert (after == fresh).all()
            assert not np.array_equal(after, before)
        finally:
            param.data -= np.float32(0.25)

    def test_arena_lru_bound(self, served):
        model, _, _, pairs, _ = served
        predictor = Predictor(model, max_arenas=1)
        for batch, structure in pairs:
            predictor.predict_batch(batch, structure)
        assert predictor.stats()["arenas"] == 1

    def test_max_arenas_below_one_rejected(self, served):
        # max_arenas < 1 would make the LRU evict the entry it just
        # inserted while its workspace is mid-forward, un-pinning the key
        # objects (the recycled-id() aliasing hazard).
        model = served[0]
        for bad in (0, -3):
            with pytest.raises(ValueError):
                Predictor(model, max_arenas=bad)

    def test_eviction_never_drops_fresh_entry(self, served):
        # Serve more distinct batches than max_arenas: every serve must
        # retain its *own* arena (the victim is the LRU entry, never the
        # just-inserted one) and never replay another batch's captured
        # plan — logits stay bitwise-equal to the grad-on reference even
        # while the LRU churns.
        model, trainer, dataset, _, _ = served
        eval_index = np.concatenate([dataset.val_index, dataset.test_index])
        structures = trainer._structures_for(model, dataset)
        pairs = [structures.batch(eval_index[lo:lo + 2])
                 for lo in range(0, eval_index.shape[0], 2)]
        assert len(pairs) > 1
        with default_dtype("float32"):
            reference = [_model_forward(model, b, s)[0].data.copy()
                         for b, s in pairs]
        predictor = Predictor(model, max_arenas=1)
        for _ in range(2):       # second lap re-captures after eviction
            for (batch, structure), ref in zip(pairs, reference):
                out = predictor.predict_batch(batch, structure)
                assert (out == ref).all()
                (entry_keys, _ws), = predictor._arenas.values()
                assert entry_keys[0] is batch

    def test_dtype_defaults_to_model(self, served):
        model = served[0]
        assert Predictor(model).dtype == np.float32

    def test_invalidate_drops_structures_and_resyncs_dtype(self, served):
        # model.astype + invalidate() must not keep serving structures
        # cast at the old dtype (nor logits in the old precision).
        model, _, dataset, _, _ = served
        predictor = Predictor(model)
        predictor.predict(dataset, dataset.val_index, batch_size=8)
        assert len(predictor._structures) == 1
        try:
            model.astype("float64")
            predictor.invalidate()
            assert predictor._structures == {}
            assert predictor.dtype == np.float64
            structures = predictor._structures_for(dataset)
            assert structures.graphs[0].x.dtype == np.float64
            logits = predictor.predict_batch(
                *structures.batch(dataset.val_index[:4]))
            assert logits.dtype == np.float64
        finally:
            model.astype("float32")

    def test_released_dataset_is_garbage_collected(self, served):
        import gc
        import weakref

        from repro.datasets import GraphDataset as GD
        model, _, dataset, _, _ = served
        predictor = Predictor(model)
        retired = GD("retired", list(dataset.graphs[:4]), 2,
                     dataset.num_features,
                     val_index=np.arange(2, dtype=np.int64))
        predictor.predict(retired, retired.val_index, batch_size=2)
        ref = weakref.ref(retired)
        # The structures entry must not pin the dataset: dropping the
        # caller's reference reclaims it (weakly-keyed path) ...
        del retired
        gc.collect()
        assert ref() is None
        assert predictor._structures == {}
        # ... and release_dataset() drops an entry for a live dataset.
        predictor.predict(dataset, dataset.val_index[:2], batch_size=2)
        assert len(predictor._structures) == 1
        predictor.release_dataset(dataset)
        assert predictor._structures == {}


class TestNodeServing:
    def test_predict_nodes_matches_forward(self, two_cliques_graph):
        model = AdamGNNNodeClassifier(4, 2, hidden=8, num_levels=2,
                                      rng=np.random.default_rng(0))
        model.eval()
        x = two_cliques_graph.x
        edges = two_cliques_graph.edge_index
        reference = model(Tensor(x), edges, None)[0].data
        predictor = Predictor(model)
        first = predictor.predict_nodes(x, edges)
        second = predictor.predict_nodes(x, edges)
        assert (first == reference).all()
        assert (second == reference).all()
        assert predictor.stats()["arenas"] == 1

    def test_predict_nodes_float32_matches_forward(self, two_cliques_graph):
        # Serving at float32 runs the forward in float32 end to end: the
        # output keeps the model's dtype and its bits.
        model = AdamGNNNodeClassifier(4, 2, hidden=8, num_levels=2,
                                      rng=np.random.default_rng(0))
        model.astype("float32").eval()
        x = two_cliques_graph.x
        edges = two_cliques_graph.edge_index
        with default_dtype("float32"):
            reference = model(Tensor(x, dtype=np.float32), edges,
                              None)[0].data
        out = Predictor(model).predict_nodes(x, edges)
        assert out.dtype == np.float32
        assert (out == reference).all()
