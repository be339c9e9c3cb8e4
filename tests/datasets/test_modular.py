"""Direct tests of the fold-labelled modular-graph builder."""

import hashlib
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (GRAPH_DATASET_NAMES, ModularGraphConfig,
                            build_modular_graph, generate_modular_dataset,
                            generate_molecule_dataset,
                            generate_protein_dataset, load_graph_dataset)
from repro.graph import Graph, bfs_distances, is_connected

CFG = ModularGraphConfig(num_graphs=10, modules=(4, 6), module_size=(4, 6),
                         p_in=0.5, extra_contacts=(2, 4),
                         local_contacts=(0, 1), num_features=12,
                         num_module_types=3, type_noise=0.1,
                         type0_rate=(0.2, 0.5))


class TestBuilder:
    def test_graphs_are_connected(self, rng):
        for label in (0, 1):
            g = build_modular_graph(CFG, label, rng)
            assert is_connected(g)

    def test_undirected(self, rng):
        assert build_modular_graph(CFG, 1, rng).is_undirected()

    def test_label_stored(self, rng):
        for label in (0, 1):
            g = build_modular_graph(CFG, label, rng)
            assert int(np.atleast_1d(g.y)[0]) == label

    def test_feature_width(self, rng):
        g = build_modular_graph(CFG, 0, rng)
        assert g.x.shape == (g.num_nodes, 12)

    def test_decorations_add_pendants(self, rng):
        cfg = ModularGraphConfig(num_graphs=1, modules=(4, 4),
                                 module_size=(5, 5), decoration_rate=0.5,
                                 num_features=8)
        g = build_modular_graph(cfg, 0, rng)
        assert g.num_nodes > 20  # base 4×5 plus pendants
        assert (g.degrees() == 1).any()

    def test_folded_class_is_more_compact(self):
        rng = np.random.default_rng(3)
        ecc = {0: [], 1: []}
        for i in range(30):
            g = build_modular_graph(CFG, i % 2, rng)
            ecc[i % 2].append(int(bfs_distances(g, 0).max()))
        assert np.mean(ecc[1]) < np.mean(ecc[0])

    def test_composition_signal_present(self):
        rng = np.random.default_rng(4)
        type0 = {0: [], 1: []}
        for i in range(40):
            g = build_modular_graph(CFG, i % 2, rng)
            type0[i % 2].append(g.x[:, 0].mean())
        assert np.mean(type0[1]) > np.mean(type0[0])

    def test_two_module_graphs_handled(self, rng):
        cfg = ModularGraphConfig(num_graphs=1, modules=(2, 2),
                                 module_size=(4, 4), num_features=8)
        for label in (0, 1):
            g = build_modular_graph(cfg, label, rng)
            assert is_connected(g)


@settings(max_examples=15, deadline=None)
@given(label=st.integers(0, 1), seed=st.integers(0, 2000))
def test_property_sizes_within_configured_bounds(label, seed):
    rng = np.random.default_rng(seed)
    g = build_modular_graph(CFG, label, rng)
    min_nodes = CFG.modules[0] * CFG.module_size[0]
    max_nodes = CFG.modules[1] * CFG.module_size[1]
    assert min_nodes <= g.num_nodes <= max_nodes * 1.5  # + decorations


def per_pair_oracle(cfg: ModularGraphConfig, label: int,
                    rng: np.random.Generator) -> Graph:
    """The builder as one scalar draw per decision (the reference order).

    ``build_modular_graph`` batches these draws; a NumPy ``Generator``
    must consume its stream identically either way, so both produce the
    same graph and leave ``rng`` in the same state.
    """
    num_modules = int(rng.integers(cfg.modules[0], cfg.modules[1] + 1))
    sizes = rng.integers(cfg.module_size[0], cfg.module_size[1] + 1,
                         size=num_modules)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])

    pairs: List[Tuple[int, int]] = []
    for b in range(num_modules):
        members = np.arange(offsets[b], offsets[b + 1])
        for i_pos, u in enumerate(members):
            for v in members[i_pos + 1:]:
                if rng.random() < cfg.p_in:
                    pairs.append((int(u), int(v)))
        for u, v in zip(members[:-1], members[1:]):
            pairs.append((int(u), int(v)))

    def contact(b1: int, b2: int) -> None:
        u = int(rng.integers(offsets[b1], offsets[b1 + 1]))
        v = int(rng.integers(offsets[b2], offsets[b2 + 1]))
        pairs.append((u, v))

    for b in range(num_modules - 1):
        contact(b, b + 1)

    lo, hi = cfg.extra_contacts if label == 1 else cfg.local_contacts
    budget = int(rng.integers(lo, hi + 1))
    for _ in range(budget):
        if label == 1 and num_modules >= 3:
            b1 = int(rng.integers(0, num_modules - 2))
            b2 = int(rng.integers(b1 + 2, num_modules))
        else:
            b1 = int(rng.integers(0, num_modules - 1))
            b2 = b1 + 1
        contact(b1, b2)

    next_node = n
    if cfg.decoration_rate > 0:
        for node in range(n):
            if rng.random() < cfg.decoration_rate:
                pairs.append((node, next_node))
                next_node += 1
    total_nodes = next_node

    unique = sorted(set((min(u, v), max(u, v)) for u, v in pairs if u != v))
    src = np.asarray([p[0] for p in unique], dtype=np.int64)
    dst = np.asarray([p[1] for p in unique], dtype=np.int64)
    edge_index = np.stack([np.concatenate([src, dst]),
                           np.concatenate([dst, src])])

    x = np.zeros((total_nodes, cfg.num_features), dtype=np.float64)
    t = cfg.num_module_types
    type0 = cfg.type0_rate[label]
    for b in range(num_modules):
        if rng.random() < type0:
            state = 0
        else:
            state = int(rng.integers(1, t)) if t > 1 else 0
        for node in range(offsets[b], offsets[b + 1]):
            node_state = state
            if cfg.type_noise and rng.random() < cfg.type_noise:
                node_state = int(rng.integers(0, t))
            x[node, node_state] = 1.0
    noise_cols = cfg.num_features - t
    if noise_cols > 0:
        x[:, t:] = rng.random((total_nodes, noise_cols)) \
            < cfg.feature_noise_rate
    return Graph(edge_index, x=x, y=np.asarray(label),
                 num_nodes=total_nodes)


def assert_same_graph(got: Graph, want: Graph) -> None:
    assert got.num_nodes == want.num_nodes
    for a, b in ((got.edge_index, want.edge_index), (got.x, want.x),
                 (got.y, want.y)):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


@st.composite
def modular_configs(draw) -> ModularGraphConfig:
    m_lo = draw(st.integers(2, 5))
    k_lo = draw(st.integers(1, 5))
    t = draw(st.integers(1, 4))
    c_lo = draw(st.integers(0, 3))
    return ModularGraphConfig(
        num_graphs=1,
        modules=(m_lo, m_lo + draw(st.integers(0, 3))),
        module_size=(k_lo, k_lo + draw(st.integers(0, 4))),
        p_in=draw(st.sampled_from([0.0, 0.3, 0.55, 1.0])),
        extra_contacts=(c_lo, c_lo + draw(st.integers(0, 3))),
        local_contacts=(0, draw(st.integers(0, 2))),
        num_features=t + draw(st.integers(0, 4)),
        num_module_types=t,
        type_noise=draw(st.sampled_from([0.0, 0.1, 0.5])),
        feature_noise_rate=draw(st.sampled_from([0.0, 0.1])),
        decoration_rate=draw(st.sampled_from([0.0, 0.08, 0.5])),
        type0_rate=(draw(st.sampled_from([0.2, 1 / 3])),
                    draw(st.sampled_from([0.5, 1.0]))))


@settings(max_examples=60, deadline=None)
@given(cfg=modular_configs(), seed=st.integers(0, 2**32 - 1),
       first_label=st.integers(0, 1))
def test_batched_builder_matches_per_pair_oracle(cfg, seed, first_label):
    batched = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    for i in range(4):
        label = (first_label + i) % 2
        assert_same_graph(build_modular_graph(cfg, label, batched),
                          per_pair_oracle(cfg, label, scalar))
    assert batched.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("cfg", [
    CFG,
    ModularGraphConfig(num_graphs=1, modules=(2, 2), module_size=(1, 1),
                       num_features=3, num_module_types=1, type_noise=0.0),
    ModularGraphConfig(num_graphs=1, modules=(3, 6), module_size=(1, 3),
                       decoration_rate=0.5, num_features=5,
                       num_module_types=4, type_noise=0.5),
])
def test_builder_matches_oracle_on_a_long_stream(cfg):
    """Many graphs from one generator, so its 32-bit half-word buffer is
    both full and empty at every kind of draw boundary."""
    batched = np.random.default_rng(99)
    scalar = np.random.default_rng(99)
    for i in range(200):
        assert_same_graph(build_modular_graph(cfg, i % 2, batched),
                          per_pair_oracle(cfg, i % 2, scalar))
        assert batched.bit_generator.state == scalar.bit_generator.state


def dataset_digest(dataset) -> str:
    """sha256 over every graph's edges and features, labels and splits."""
    h = hashlib.sha256()

    def put(a: np.ndarray) -> None:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())

    for g in dataset.graphs:
        put(g.edge_index)
        put(g.x)
    for a in (dataset.labels(), dataset.train_index, dataset.val_index,
              dataset.test_index):
        put(a)
    return h.hexdigest()


#: Digests of every graph-task dataset, recorded from the per-pair builder.
#: A change here means the data every Table 1/4 run trains on changed.
DATASET_DIGESTS = {
    (0, "nci1"): "17a6318ef40bcb4adb255aac7f682f72f8b7179db14ec6ad50b2a592e577b449",
    (0, "nci109"): "767f273bc62436f76abbe433998df88e10f9c2c04b4c752776f3221707ac6389",
    (0, "dd"): "348c6bc86816c011fdca095f7dd4cc210923db18d0c496fb9cee7717d158e210",
    (0, "mutag"): "f938c0ccf25386586256827198b8b913e42bd501b2118fae75da5bb1d890797b",
    (0, "mutagenicity"): "bee3249439dd9733e971db64e1d23a720c970840013777fa51ed7d176f3e90b7",
    (0, "proteins"): "13c9b38f2e434fb012a5eb7d58b9330c1b7d9cdd0c06549a894a67a7f94eb20f",
    (1, "nci1"): "af50f7e5f4c12300601833cb8c5a40127e39ea32a2a714ab79e72f4ec2d77c6d",
    (1, "nci109"): "475b5b9918703effa95e73869c7994ff0122ad4904bd096fe7d86eee5a46ee16",
    (1, "dd"): "80a47618518b950263c9780fceaafc2c31356ac36caf0fe97fd1ffd33c5e5c11",
    (1, "mutag"): "9540d48ae08c9c277b013771c7fd8f6d3da4f162ef9ddf71db77fcf11998f7f0",
    (1, "mutagenicity"): "4507a77529efa1bc22fc47bcf5bba281ca86a4aedb64b246eb225ef9d54d7676",
    (1, "proteins"): "d4c14130199456e6a28f963c372df7c9574480d0577ea551e13a90770c86bd2f",
}


def test_digests_cover_every_graph_dataset():
    assert {name for _, name in DATASET_DIGESTS} == set(GRAPH_DATASET_NAMES)


@pytest.mark.parametrize("seed,name", sorted(DATASET_DIGESTS))
def test_graph_dataset_digest_pinned(seed, name):
    digest = dataset_digest(load_graph_dataset(name, seed=seed))
    assert digest == DATASET_DIGESTS[(seed, name)]


def test_family_names_are_the_modular_builder():
    assert generate_protein_dataset is generate_modular_dataset
    assert generate_molecule_dataset is generate_modular_dataset
