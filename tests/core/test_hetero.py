"""Heterogeneous-extension tests (R-GCN, typed fitness, HeteroAdamGNN)."""

import numpy as np
import pytest

from repro.core import (AdamGNN, HeteroAdamGNN, RelationalGCNConv,
                        TypedFitnessScorer)
from repro.core.egonet import build_ego_networks
from repro.core.fitness import FitnessScorer
from repro.datasets import load_hetero_dataset
from repro.tensor import Tensor, leaky_relu, segment_softmax, sigmoid


def dict_pair_types(egos, edge_index, edge_type, fallback):
    """Reference relation lookup: a dict over the edges, last edge wins."""
    table = {}
    for (u, v), r in zip(edge_index.T.tolist(), edge_type.tolist()):
        table[(u, v)] = int(r)
    return np.asarray([table.get((i, j), fallback)
                       for i, j in zip(egos.ego.tolist(),
                                       egos.member.tolist())],
                      dtype=np.int64)


@pytest.fixture(scope="module")
def hetero_data():
    dataset, edge_type = load_hetero_dataset(seed=0)
    return dataset, edge_type


class TestRelationalGCN:
    def test_per_relation_weights(self, rng):
        conv = RelationalGCNConv(4, 4, num_relations=2, rng=rng)
        x = Tensor(np.eye(4))
        edges = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
        types = np.array([0, 0, 1, 1])
        out = conv(x, edges, types)
        assert out.shape == (4, 4)
        # Zeroing relation 1 changes only nodes 2 and 3.
        conv.relation_linears[1].weight.data[:] = 0.0
        out2 = conv(x, edges, types)
        assert np.allclose(out.data[:2], out2.data[:2])
        assert not np.allclose(out.data[2:], out2.data[2:])

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RelationalGCNConv(4, 4, num_relations=0)
        conv = RelationalGCNConv(4, 4, num_relations=2, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(np.eye(4)), np.array([[0], [1]]),
                 np.array([0, 1]))  # wrong edge_type length

    def test_missing_relation_is_noop(self, rng):
        conv = RelationalGCNConv(3, 3, num_relations=3, rng=rng)
        x = Tensor(np.eye(3))
        edges = np.array([[0, 1], [1, 0]])
        out = conv(x, edges, np.array([0, 0]))  # relation 1, 2 unused
        assert np.isfinite(out.data).all()


class TestTypedFitness:
    def test_types_resolved_with_fallback(self, hetero_data, rng):
        dataset, edge_type = hetero_data
        graph = dataset.graph
        scorer = TypedFitnessScorer(8, num_relations=2, rng=rng)
        egos = build_ego_networks(graph.edge_index, graph.num_nodes, 1)
        types = scorer.pair_types(egos, graph.edge_index, edge_type)
        assert types.max() <= 2  # two relations + fallback id
        assert types.min() >= 0

    def test_pair_types_match_dict_lookup(self, hetero_data, rng):
        dataset, edge_type = hetero_data
        graph = dataset.graph
        scorer = TypedFitnessScorer(8, num_relations=2, rng=rng)
        for radius in (1, 2):
            egos = build_ego_networks(graph.edge_index, graph.num_nodes,
                                      radius)
            types = scorer.pair_types(egos, graph.edge_index, edge_type)
            assert np.array_equal(types, dict_pair_types(
                egos, graph.edge_index, edge_type, fallback=2))
        # The dataset joins some directed pairs by two edges (of one
        # relation); the hand-made graph below mixes relations.
        keys = graph.edge_index[0] * graph.num_nodes + graph.edge_index[1]
        assert np.unique(keys).size < keys.size

    def test_pair_joined_by_two_relations_takes_last_edge(self, rng):
        # 0→1 carries relation 0 then 2; 1→0 carries 1, 0, then 1 again;
        # 1→2 exists only one way, so 2→1 falls back.
        edges = np.array([[0, 1, 1, 0, 1, 1],
                          [1, 2, 0, 1, 0, 0]])
        edge_type = np.array([0, 1, 1, 2, 0, 1])
        scorer = TypedFitnessScorer(4, num_relations=3, rng=rng)
        egos = build_ego_networks(edges, 3, 1)
        types = scorer.pair_types(egos, edges, edge_type)
        assert np.array_equal(types, dict_pair_types(egos, edges, edge_type,
                                                     fallback=3))
        lookup = dict(zip(zip(egos.ego.tolist(), egos.member.tolist()),
                          types.tolist()))
        assert lookup == {(0, 1): 2, (1, 0): 1, (1, 2): 1, (2, 1): 3}

    def test_pair_types_reject_unknown_relation(self, rng):
        scorer = TypedFitnessScorer(4, num_relations=2, rng=rng)
        edges = np.array([[0, 1], [1, 0]])
        egos = build_ego_networks(edges, 2, 1)
        with pytest.raises(ValueError):
            scorer.pair_types(egos, edges, np.array([0, 2]))

    def test_scores_match_per_pair_reference(self, hetero_data, rng):
        # The per-node halves gathered per pair equal Eq. 2 evaluated
        # pair by pair with each pair's relation column.
        dataset, edge_type = hetero_data
        graph = dataset.graph
        h = Tensor(np.random.default_rng(0).normal(
            size=(graph.num_nodes, 8)))
        scorer = TypedFitnessScorer(8, num_relations=2, rng=rng)
        egos = build_ego_networks(graph.edge_index, graph.num_nodes, 1)
        types = scorer.pair_types(egos, graph.edge_index, edge_type)
        got = scorer.pair_scores(h, egos, types).data

        act = leaky_relu(scorer.transform(h)).data
        a = scorer.attention.data
        logits = ((act[egos.member] * a[:8, types].T).sum(axis=1)
                  + (act[egos.ego] * a[8:, types].T).sum(axis=1))
        f_s = segment_softmax(Tensor(logits), egos.member,
                              graph.num_nodes).data
        dots = (h.data[egos.member] * h.data[egos.ego]).sum(axis=1)
        want = f_s * sigmoid(Tensor(dots)).data
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_relations_required_by_typed_and_refused_by_plain(self, rng):
        edges = np.array([[0, 1], [1, 0]])
        egos = build_ego_networks(edges, 2, 1)
        h = Tensor(np.eye(2, 4))
        with pytest.raises(ValueError):
            TypedFitnessScorer(4, num_relations=1, rng=rng).pair_scores(
                h, egos)
        with pytest.raises(ValueError):
            FitnessScorer(4, rng=rng).pair_scores(h, egos,
                                                  np.zeros(2, np.int64))

    def test_scores_are_valid(self, hetero_data, rng):
        dataset, edge_type = hetero_data
        graph = dataset.graph
        h = Tensor(np.random.default_rng(0).normal(
            size=(graph.num_nodes, 8)))
        scorer = TypedFitnessScorer(8, num_relations=2, rng=rng)
        egos = build_ego_networks(graph.edge_index, graph.num_nodes, 1)
        relations = scorer.pair_types(egos, graph.edge_index, edge_type)
        phi_pairs, phi_nodes = scorer(h, egos, relations)
        assert phi_pairs.shape == (egos.num_pairs,)
        assert (phi_pairs.data > 0).all()
        assert (phi_pairs.data < 1).all()
        assert phi_nodes.shape == (graph.num_nodes,)


class TestHeteroAdamGNN:
    def test_forward_contract(self, hetero_data, rng):
        dataset, edge_type = hetero_data
        graph = dataset.graph
        model = HeteroAdamGNN(graph.num_features, num_relations=2,
                              hidden=16, num_levels=2, rng=rng)
        out = model(Tensor(graph.x), graph.edge_index, edge_type=edge_type)
        assert out.h.shape == (graph.num_nodes, 16)
        assert out.num_levels >= 1
        assert out.level1_egos().size >= 1

    def test_is_an_adamgnn_configuration(self, rng):
        model = HeteroAdamGNN(4, num_relations=2, hidden=8, num_levels=3,
                              rng=rng)
        assert isinstance(model, AdamGNN)
        assert type(model).forward is AdamGNN.forward
        assert isinstance(model.input_conv, RelationalGCNConv)
        assert isinstance(model.poolers[0].fitness, TypedFitnessScorer)
        assert all(type(p.fitness) is FitnessScorer
                   for p in model.poolers[1:])
        assert len(model.level_convs) == 3

    @pytest.mark.parametrize("edges", [
        np.zeros((2, 0), dtype=np.int64),
        np.array([[0, 1], [1, 0]]),
    ], ids=["edgeless", "two-node"])
    def test_stop_rule_matches_adamgnn(self, edges):
        # Both models walk levels in AdamGNN.forward, so the same graph
        # yields the same levels whatever the level-0 parts are.
        n = 5 if edges.shape[1] == 0 else 2
        x = Tensor(np.random.default_rng(0).normal(size=(n, 4)))
        edge_type = np.zeros(edges.shape[1], dtype=np.int64)
        typed = HeteroAdamGNN(4, num_relations=2, hidden=8, num_levels=2,
                              rng=np.random.default_rng(1))(
            x, edges, edge_type=edge_type)
        plain = AdamGNN(4, hidden=8, num_levels=2,
                        rng=np.random.default_rng(1))(x, edges)
        assert typed.num_levels == plain.num_levels
        assert ([lvl.num_hyper for lvl in typed.levels]
                == [lvl.num_hyper for lvl in plain.levels])
        assert typed.beta.shape == plain.beta.shape
        assert typed.h.shape == plain.h.shape == (n, 8)
        if edges.shape[1] == 0:
            assert typed.num_levels == 0

    def test_level0_structure_built_once(self, hetero_data, monkeypatch):
        dataset, edge_type = hetero_data
        graph = dataset.graph
        calls = []
        original = TypedFitnessScorer.pair_types

        def counting(self, *args):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(TypedFitnessScorer, "pair_types", counting)
        model = HeteroAdamGNN(graph.num_features, num_relations=2,
                              hidden=8, num_levels=2,
                              rng=np.random.default_rng(0))
        x = Tensor(graph.x)
        first = model(x, graph.edge_index, edge_type=edge_type)
        hits = model.structure_cache.stats()["hits"]
        second = model(x, graph.edge_index, edge_type=edge_type)
        assert len(calls) == 1
        assert model.structure_cache.stats()["hits"] > hits
        assert np.array_equal(first.h.data, second.h.data)

    def test_positional_edge_type_is_refused(self, hetero_data, rng):
        # The third positional argument is edge_weight; integer relation
        # ids never reach the R-GCN as float weights silently.
        dataset, edge_type = hetero_data
        graph = dataset.graph
        model = HeteroAdamGNN(graph.num_features, num_relations=2,
                              hidden=8, rng=rng)
        with pytest.raises(TypeError):
            model(Tensor(graph.x), graph.edge_index, edge_type)

    def test_trains_on_hetero_benchmark(self, hetero_data):
        from repro.nn import cross_entropy
        from repro.optim import Adam
        from repro.training import accuracy
        dataset, edge_type = hetero_data
        graph = dataset.graph
        model = HeteroAdamGNN(graph.num_features, num_relations=2,
                              hidden=16, num_levels=2,
                              rng=np.random.default_rng(0))
        opt = Adam(model.parameters(), lr=0.01)
        x = Tensor(graph.x)
        masks = dataset.splits.masks(graph.num_nodes)
        for _ in range(15):
            model.zero_grad()
            out = model(x, graph.edge_index, edge_type=edge_type)
            from repro.nn import Linear
            logits = out.h  # linear probe below instead of a head
            loss = cross_entropy(out.h[:, :dataset.num_classes],
                                 np.asarray(graph.y), mask=masks["train"])
            loss.backward()
            opt.step()
        out = model(x, graph.edge_index, edge_type=edge_type)
        acc = accuracy(out.h.data[:, :dataset.num_classes],
                       np.asarray(graph.y), masks["test"])
        assert acc > 1.0 / dataset.num_classes  # beats chance


class TestHeteroDataset:
    def test_edge_types_align(self, hetero_data):
        dataset, edge_type = hetero_data
        assert edge_type.shape[0] == dataset.graph.num_edges
        assert set(np.unique(edge_type)) <= {0, 1}

    def test_author_relation_denser_within_communities(self, hetero_data):
        dataset, edge_type = hetero_data
        graph = dataset.graph
        src, dst = graph.edge_index
        same_class = graph.y[src] == graph.y[dst]
        author_assortativity = same_class[edge_type == 0].mean()
        cite_assortativity = same_class[edge_type == 1].mean()
        assert author_assortativity > cite_assortativity

    def test_deterministic(self):
        a, ta = load_hetero_dataset(seed=1)
        b, tb = load_hetero_dataset(seed=1)
        assert np.array_equal(a.graph.edge_index, b.graph.edge_index)
        assert np.array_equal(ta, tb)
