"""Convolution-layer tests: semantics, shapes, gradients."""

import numpy as np
import pytest

import repro.layers.gcn as gcn_module
from repro.graph import build_row_plan, gcn_normalization, normalize_edges
from repro.layers import (GATConv, GCNConv, GINConv, SAGEConv, gin_mlp,
                          global_max, global_mean, global_sum,
                          mean_max_readout, propagate)
from repro.tensor import (Tensor, assert_gradients_close, check_gradients,
                          default_dtype)


class TestPropagate:
    def test_sum_semantics(self, triangle_graph):
        x = Tensor(np.eye(4))
        out = propagate(x, triangle_graph.edge_index, 4)
        # Node 3's only in-edge comes from node 2.
        assert np.allclose(out.data[3], [0, 0, 1, 0])
        # Node 2 receives from 0, 1, 3.
        assert np.allclose(out.data[2], [1, 1, 0, 1])

    def test_mean_and_max(self, triangle_graph):
        x = Tensor(np.arange(4.0).reshape(4, 1))
        mean = propagate(x, triangle_graph.edge_index, 4, reduce="mean")
        assert mean.data[2, 0] == pytest.approx((0 + 1 + 3) / 3)
        mx = propagate(x, triangle_graph.edge_index, 4, reduce="max")
        assert mx.data[2, 0] == 3.0

    def test_edge_weight_scales_messages(self, triangle_graph):
        x = Tensor(np.ones((4, 1)))
        weights = np.full(8, 0.5)
        out = propagate(x, triangle_graph.edge_index, 4,
                        edge_weight=weights)
        assert out.data[3, 0] == pytest.approx(0.5)

    def test_unknown_reduce(self, triangle_graph):
        with pytest.raises(ValueError):
            propagate(Tensor(np.ones((4, 1))), triangle_graph.edge_index, 4,
                      reduce="median")


class TestGCNConv:
    def test_shapes(self, triangle_graph, rng):
        conv = GCNConv(4, 8, rng=rng)
        edges, weight = gcn_normalization(triangle_graph)
        out = conv(Tensor(triangle_graph.x), edges, weight)
        assert out.shape == (4, 8)

    def test_identity_weight_recovers_operator(self, triangle_graph):
        conv = GCNConv(4, 4, bias=False, rng=np.random.default_rng(0))
        conv.weight.data = np.eye(4)
        edges, weight = gcn_normalization(triangle_graph)
        out = conv(Tensor(np.eye(4)), edges, weight)
        # Output row i = normalised operator row i.
        dense = np.zeros((4, 4))
        dense[edges[1], edges[0]] += weight  # message src→dst
        assert np.allclose(out.data, dense)

    def test_gradients_flow_to_weight(self, triangle_graph, rng):
        conv = GCNConv(4, 3, rng=rng)
        edges, weight = gcn_normalization(triangle_graph)
        out = conv(Tensor(triangle_graph.x), edges, weight)
        out.sum().backward()
        assert conv.weight.grad is not None
        assert np.abs(conv.weight.grad).sum() > 0



def weighted_graph(num_nodes, num_undirected, seed, isolated=2):
    """Symmetric weighted edges among the first ``num_nodes - isolated``
    nodes; the last ``isolated`` nodes have no edge."""
    rng = np.random.default_rng(seed)
    linked = num_nodes - isolated
    pairs = {tuple(sorted(p)) for p in rng.integers(0, linked,
                                                    (num_undirected, 2))
             if p[0] != p[1]}
    src, dst = np.array(sorted(pairs), dtype=np.int64).T
    weight = rng.uniform(0.2, 2.0, src.shape[0])
    edge_index = np.stack([np.concatenate([src, dst]),
                           np.concatenate([dst, src])])
    return edge_index, np.concatenate([weight, weight])


def dense_eq1(edge_index, edge_weight, num_nodes, x, weight, bias):
    """``D̂^-½ (A + I) D̂^-½ X W + b`` on dense float64 matrices."""
    adj = np.eye(num_nodes)
    np.add.at(adj, (edge_index[1], edge_index[0]), edge_weight)
    scale = 1.0 / np.sqrt(adj.sum(axis=1))
    operator = scale[:, None] * adj * scale[None, :]
    return (operator @ np.asarray(x, np.float64)
            @ np.asarray(weight, np.float64) + np.asarray(bias, np.float64))


def run_conv(monkeypatch, conv, *args, **kwargs):
    """``conv(*args, **kwargs)`` and the order it took: ``"aggregate"``
    when its one affine carried the bias, else ``"transform"``."""
    biased = []
    original = gcn_module.affine

    def spy(x, weight, bias):
        biased.append(bias is not None)
        return original(x, weight, bias)

    monkeypatch.setattr(gcn_module, "affine", spy)
    out = conv(*args, **kwargs)
    assert len(biased) == 1
    return out, "aggregate" if biased[0] else "transform"


def random_conv(d_in, d_out, dtype):
    conv = GCNConv(d_in, d_out, rng=np.random.default_rng(1)).astype(dtype)
    conv.bias.data[:] = np.random.default_rng(2).standard_normal(
        d_out).astype(dtype)
    return conv


class TestGCNConvEq1:
    """``GCNConv`` is Eq. 1, ``D̂^-½ÂD̂^-½XW + b``, in either product
    order."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("d_in,d_out,order", [(3, 7, "aggregate"),
                                                  (7, 3, "transform"),
                                                  (5, 5, "transform")])
    def test_full_graph_matches_dense(self, monkeypatch, dtype, d_in, d_out,
                                      order):
        num_nodes = 12
        edge_index, edge_weight = weighted_graph(num_nodes, 20, 0)
        conv = random_conv(d_in, d_out, dtype)
        x_data = np.random.default_rng(3).standard_normal(
            (num_nodes, d_in)).astype(dtype)
        norm_index, norm_weight = normalize_edges(
            edge_index, edge_weight.astype(dtype), num_nodes)
        with default_dtype(dtype):
            out, taken = run_conv(monkeypatch, conv, Tensor(x_data),
                                  norm_index, norm_weight,
                                  num_nodes=num_nodes)
        assert taken == order
        assert out.data.dtype == np.dtype(dtype)
        want = dense_eq1(edge_index, edge_weight, num_nodes, x_data,
                         conv.weight.data, conv.bias.data)
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("d_in,d_out,order", [(4, 4, "aggregate"),
                                                  (16, 1, "transform")])
    def test_block_matches_dense(self, monkeypatch, dtype, d_in, d_out,
                                 order):
        num_nodes, num_outputs = 60, 4
        edge_index, edge_weight = weighted_graph(num_nodes, 400, 1)
        plan = build_row_plan(edge_index, edge_weight, num_nodes,
                              num_outputs, 1, normalize=True)
        block = plan.blocks[0]
        assert block.num_in > 8 * block.num_out
        conv = random_conv(d_in, d_out, dtype)
        x_data = np.random.default_rng(4).standard_normal(
            (num_nodes, d_in)).astype(dtype)
        with default_dtype(dtype):
            out, taken = run_conv(monkeypatch, conv,
                                  Tensor(x_data[plan.input_rows]),
                                  block=block)
        assert taken == order
        assert out.data.dtype == np.dtype(dtype)
        want = dense_eq1(edge_index, edge_weight, num_nodes, x_data,
                         conv.weight.data, conv.bias.data)[block.rows]
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-6)

    def test_bias_is_not_scaled_by_degree(self):
        # Path 0-1-2-3: the normalised rows sum to 0.908 and 1.075, so a
        # bias added before aggregation would read those.
        edge_index = np.array([[0, 1, 1, 2, 2, 3], [1, 0, 2, 1, 3, 2]])
        norm_index, norm_weight = normalize_edges(edge_index, np.ones(6), 4)
        for d_in, d_out in [(2, 5), (5, 2)]:
            conv = GCNConv(d_in, d_out, rng=np.random.default_rng(0))
            conv.weight.data[:] = 0.0
            conv.bias.data[:] = 1.0
            out = conv(Tensor(np.ones((4, d_in))), norm_index, norm_weight)
            assert np.array_equal(out.data, np.ones((4, d_out)))

    @pytest.mark.parametrize("d_in,d_out", [(3, 6), (6, 3)])
    def test_gradients_in_each_order(self, d_in, d_out):
        edge_index, edge_weight = weighted_graph(9, 14, 5)
        norm_index, norm_weight = normalize_edges(edge_index, edge_weight, 9)
        conv = random_conv(d_in, d_out, "float64")
        x = Tensor(np.random.default_rng(6).standard_normal((9, d_in)),
                   dtype="float64", requires_grad=True)
        ok, message = check_gradients(
            lambda t, w, b: conv(t, norm_index, norm_weight) ** 2,
            [x, conv.weight, conv.bias])
        assert ok, message


class TestSAGEConv:
    def test_self_plus_mean(self, triangle_graph, rng):
        conv = SAGEConv(4, 4, rng=rng)
        conv.lin_self.weight.data = np.eye(4)
        conv.lin_self.bias.data[:] = 0.0
        conv.lin_neigh.weight.data = np.zeros((4, 4))
        out = conv(Tensor(triangle_graph.x), triangle_graph.edge_index)
        # With neighbour weights zeroed, output equals the input.
        assert np.allclose(out.data, triangle_graph.x)

    def test_isolated_node_keeps_self(self, rng):
        conv = SAGEConv(2, 2, rng=rng)
        x = Tensor(np.ones((3, 2)))
        edges = np.array([[0, 1], [1, 0]])
        out = conv(x, edges, num_nodes=3)
        assert np.isfinite(out.data).all()


class TestGATConv:
    def test_attention_rows_convex(self, triangle_graph, rng):
        conv = GATConv(4, 4, rng=rng)
        out = conv(Tensor(triangle_graph.x), triangle_graph.edge_index)
        assert out.shape == (4, 4)
        assert np.isfinite(out.data).all()

    def test_single_node_self_loop_only(self, rng):
        conv = GATConv(3, 3, rng=rng)
        out = conv(Tensor(np.ones((1, 3))), np.zeros((2, 0), dtype=np.int64),
                   num_nodes=1)
        assert out.shape == (1, 3)

    def test_gradients(self, triangle_graph, rng):
        conv = GATConv(4, 2, rng=rng)
        x = Tensor(triangle_graph.x, requires_grad=True)
        assert_gradients_close(
            lambda t: conv(t, triangle_graph.edge_index) * 2.0, [x],
            atol=1e-4)


class TestGINConv:
    def test_eps_zero_sums_self_and_neighbors(self, triangle_graph):
        mlp = gin_mlp(4, 4, 4, batch_norm=False,
                      rng=np.random.default_rng(0))
        conv = GINConv(mlp, train_eps=False)
        # Replace the MLP with identity to expose the aggregation.
        mlp[0].weight.data = np.eye(4)
        mlp[0].bias.data[:] = 0.0
        mlp[2].weight.data = np.eye(4)
        mlp[2].bias.data[:] = 0.0
        x = Tensor(np.eye(4))
        out = conv(x, triangle_graph.edge_index)
        # Node 3: itself + node 2, ReLU of which is the same (non-negative).
        assert np.allclose(out.data[3], [0, 0, 1, 1])

    def test_trainable_eps_receives_gradient(self, triangle_graph):
        mlp = gin_mlp(4, 8, 4, batch_norm=False,
                      rng=np.random.default_rng(0))
        conv = GINConv(mlp)
        out = conv(Tensor(np.eye(4)), triangle_graph.edge_index)
        out.sum().backward()
        assert conv.eps.grad is not None


class TestReadouts:
    BATCH = np.array([0, 0, 1, 1, 1])

    def test_sum_mean_max(self):
        x = Tensor(np.arange(5.0).reshape(5, 1))
        assert global_sum(x, self.BATCH, 2).data.tolist() == [[1.0], [9.0]]
        assert global_mean(x, self.BATCH, 2).data.tolist() == [[0.5], [3.0]]
        assert global_max(x, self.BATCH, 2).data.tolist() == [[1.0], [4.0]]

    def test_mean_max_concat(self):
        x = Tensor(np.arange(10.0).reshape(5, 2))
        out = mean_max_readout(x, self.BATCH, 2)
        assert out.shape == (2, 4)
