"""Top-k family pooling tests (TopKPooling, SAGPooling, shared machinery)."""

import numpy as np
import pytest

from repro.pooling import (SAGPooling, TopKPooling, filter_graph,
                           topk_per_graph, unpool_topk)
from repro.tensor import Tensor


class TestTopkPerGraph:
    def test_keeps_top_fraction(self):
        scores = np.array([0.9, 0.1, 0.5, 0.8, 0.2, 0.7])
        batch = np.array([0, 0, 0, 1, 1, 1])
        # ceil(0.34 · 3) = 2 nodes per graph.
        keep = topk_per_graph(scores, batch, 2, ratio=0.34)
        assert keep.tolist() == [0, 2, 3, 5]
        # ceil(0.1 · 3) = 1 node per graph: the top scorer of each.
        keep = topk_per_graph(scores, batch, 2, ratio=0.1)
        assert keep.tolist() == [0, 3]

    def test_ceil_keeps_at_least_one(self):
        keep = topk_per_graph(np.array([0.1]), np.array([0]), 1, ratio=0.01)
        assert keep.tolist() == [0]

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            topk_per_graph(np.ones(2), np.zeros(2, dtype=int), 1, ratio=0.0)

    def test_full_ratio_keeps_everything(self):
        scores = np.arange(5.0)
        keep = topk_per_graph(scores, np.zeros(5, dtype=int), 1, ratio=1.0)
        assert keep.tolist() == [0, 1, 2, 3, 4]


class TestFilterGraph:
    def test_drops_crossing_edges(self, triangle_graph):
        keep = np.array([0, 1])
        edges, weight, relabel = filter_graph(
            triangle_graph.edge_index, triangle_graph.edge_weight, keep, 4)
        assert edges.shape[1] == 2  # only the 0↔1 pair survives
        assert relabel[2] == -1
        assert relabel[0] == 0 and relabel[1] == 1

    def test_information_loss_documented_behavior(self, triangle_graph):
        """Dropping node 2 disconnects node 3 — the Top-k failure mode."""
        keep = np.array([0, 1, 3])
        edges, _, _ = filter_graph(triangle_graph.edge_index,
                                   triangle_graph.edge_weight, keep, 4)
        new_degrees = np.bincount(edges[0], minlength=3)
        assert new_degrees[2] == 0  # node 3 (relabelled 2) is isolated


class TestTopKPooling:
    def test_output_shapes(self, two_cliques_graph, rng):
        pool = TopKPooling(4, ratio=0.5, rng=rng)
        x = Tensor(two_cliques_graph.x)
        batch = np.zeros(8, dtype=np.int64)
        new_x, edges, weight, new_batch, perm = pool(
            x, two_cliques_graph.edge_index, two_cliques_graph.edge_weight,
            batch, 1)
        assert new_x.shape == (4, 4)
        assert perm.shape[0] == 4
        assert new_batch.shape[0] == 4
        assert edges.max(initial=-1) < 4

    def test_gate_bounded_by_tanh(self, two_cliques_graph, rng):
        pool = TopKPooling(4, ratio=0.5, rng=rng)
        x = Tensor(two_cliques_graph.x * 100)
        batch = np.zeros(8, dtype=np.int64)
        new_x, *_ = pool(x, two_cliques_graph.edge_index,
                         two_cliques_graph.edge_weight, batch, 1)
        assert (np.abs(new_x.data) <= np.abs(x.data).max() + 1e-9).all()

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            TopKPooling(4, ratio=1.5)

    def test_gradients_reach_projection(self, two_cliques_graph, rng):
        pool = TopKPooling(4, ratio=0.5, rng=rng)
        batch = np.zeros(8, dtype=np.int64)
        new_x, *_ = pool(Tensor(two_cliques_graph.x),
                         two_cliques_graph.edge_index,
                         two_cliques_graph.edge_weight, batch, 1)
        new_x.sum().backward()
        assert pool.projection.grad is not None

    def test_per_graph_selection_in_batch(self, rng):
        pool = TopKPooling(2, ratio=0.5, rng=rng)
        x = Tensor(np.random.default_rng(0).normal(size=(6, 2)))
        edges = np.zeros((2, 0), dtype=np.int64)
        batch = np.array([0, 0, 0, 1, 1, 1])
        _, _, _, new_batch, perm = pool(x, edges, np.zeros(0), batch, 2)
        # ceil(0.5 * 3) = 2 nodes per graph.
        assert (new_batch == 0).sum() == 2
        assert (new_batch == 1).sum() == 2


class TestUnpoolTopk:
    def test_scatters_to_original_slots(self):
        pooled = Tensor(np.array([[1.0], [2.0]]))
        out = unpool_topk(pooled, np.array([3, 0]), 5)
        assert out.data.reshape(-1).tolist() == [2.0, 0.0, 0.0, 1.0, 0.0]


class TestSAGPooling:
    def test_structure_aware_scoring(self, two_cliques_graph, rng):
        pool = SAGPooling(4, ratio=0.5, rng=rng)
        batch = np.zeros(8, dtype=np.int64)
        new_x, edges, weight, new_batch, perm = pool(
            Tensor(two_cliques_graph.x), two_cliques_graph.edge_index,
            two_cliques_graph.edge_weight, batch, 1)
        assert new_x.shape == (4, 4)
        assert pool.score_conv.weight.data.shape == (4, 1)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            SAGPooling(4, ratio=0.0)
