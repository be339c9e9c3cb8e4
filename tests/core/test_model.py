"""AdamGNN model tests: forward contract, levels, heads, ablation flags."""

import numpy as np
import pytest

from repro.core import (AdamGNN, AdamGNNGraphClassifier,
                        AdamGNNLinkPredictor, AdamGNNNodeClassifier)
from repro.graph import GraphBatch
from repro.tensor import Tensor


class TestAdamGNNEncoder:
    def test_output_contract(self, two_cliques_graph, rng):
        model = AdamGNN(4, hidden=8, num_levels=2, rng=rng)
        out = model(Tensor(two_cliques_graph.x),
                    two_cliques_graph.edge_index)
        assert out.h.shape == (8, 8)
        assert out.h0.shape == (8, 8)
        assert len(out.level_messages) == out.num_levels
        assert out.beta.shape == (out.num_levels, 8)
        for message in out.level_messages:
            assert message.shape == (8, 8)

    def test_levels_strictly_coarsen(self, two_cliques_graph, rng):
        model = AdamGNN(4, hidden=8, num_levels=3, rng=rng)
        out = model(Tensor(two_cliques_graph.x),
                    two_cliques_graph.edge_index)
        sizes = [8] + [lvl.num_hyper for lvl in out.levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_stops_when_graph_exhausted(self, rng):
        # A single edge collapses immediately; extra levels must not crash.
        model = AdamGNN(2, hidden=4, num_levels=5, rng=rng)
        edges = np.array([[0, 1], [1, 0]])
        out = model(Tensor(np.eye(2)), edges)
        assert out.num_levels <= 1

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            AdamGNN(4, num_levels=0)

    def test_level1_egos_exposed(self, two_cliques_graph, rng):
        model = AdamGNN(4, hidden=8, num_levels=2, rng=rng)
        out = model(Tensor(two_cliques_graph.x),
                    two_cliques_graph.edge_index)
        egos = out.level1_egos()
        assert egos.size >= 1
        assert (egos < 8).all()

    def test_flyback_disabled_gives_h0(self, two_cliques_graph, rng):
        model = AdamGNN(4, hidden=8, num_levels=2, use_flyback=False,
                        rng=np.random.default_rng(0))
        out = model(Tensor(two_cliques_graph.x),
                    two_cliques_graph.edge_index)
        assert np.allclose(out.h.data, out.h0.data)
        assert np.allclose(out.beta.data, 0.0)

    def test_graph_mode_produces_graph_repr(self, two_cliques_graph, rng):
        batch = GraphBatch.from_graphs([two_cliques_graph.copy(),
                                        two_cliques_graph.copy()])
        model = AdamGNN(4, hidden=8, num_levels=2, rng=rng)
        out = model(Tensor(batch.x), batch.edge_index, batch.edge_weight,
                    batch=batch.batch, num_graphs=2)
        assert out.graph_repr is not None
        assert out.graph_repr.shape == (2, 16)  # mean ‖ max readout

    def test_deterministic_construction(self, two_cliques_graph):
        a = AdamGNN(4, hidden=8, num_levels=2,
                    rng=np.random.default_rng(11))
        b = AdamGNN(4, hidden=8, num_levels=2,
                    rng=np.random.default_rng(11))
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(),
                                              b.named_parameters()):
            assert name_a == name_b
            assert np.allclose(pa.data, pb.data)

    def test_end_to_end_gradients(self, two_cliques_graph, rng):
        model = AdamGNN(4, hidden=8, num_levels=2, rng=rng)
        out = model(Tensor(two_cliques_graph.x),
                    two_cliques_graph.edge_index)
        out.h.sum().backward()
        # The load-bearing parameter groups all receive gradient signal.
        for param in (model.input_conv.weight,
                      model.flyback.attention,
                      model.poolers[0].fitness.attention,
                      model.level_convs[0].weight):
            assert param.grad is not None
            assert np.abs(param.grad).sum() > 0

    def test_identical_across_eval_calls(self, two_cliques_graph):
        model = AdamGNN(4, hidden=8, num_levels=2,
                        rng=np.random.default_rng(0))
        model.eval()
        x = Tensor(two_cliques_graph.x)
        a = model(x, two_cliques_graph.edge_index).h.data
        b = model(x, two_cliques_graph.edge_index).h.data
        assert np.allclose(a, b)


class TestHeads:
    def test_node_classifier(self, two_cliques_graph, rng):
        head = AdamGNNNodeClassifier(4, 2, hidden=8, num_levels=2, rng=rng)
        logits, out = head(Tensor(two_cliques_graph.x),
                           two_cliques_graph.edge_index)
        assert logits.shape == (8, 2)
        assert out.h.shape == (8, 8)

    def test_link_predictor_returns_output(self, two_cliques_graph, rng):
        model = AdamGNNLinkPredictor(4, hidden=8, num_levels=2, rng=rng)
        out = model(Tensor(two_cliques_graph.x),
                    two_cliques_graph.edge_index)
        assert out.h.shape == (8, 8)

    def test_graph_classifier(self, two_cliques_graph, rng):
        batch = GraphBatch.from_graphs([two_cliques_graph.copy(),
                                        two_cliques_graph.copy()])
        head = AdamGNNGraphClassifier(4, 2, hidden=8, num_levels=2, rng=rng)
        logits, out = head(Tensor(batch.x), batch.edge_index,
                           batch.edge_weight, batch.batch, 2)
        assert logits.shape == (2, 2)

    def test_ablation_flags_forwarded(self, rng):
        head = AdamGNNNodeClassifier(4, 2, use_flyback=False,
                                     use_linearity=False, rng=rng)
        assert not head.encoder.use_flyback
        assert not head.encoder.poolers[0].fitness.use_linearity
