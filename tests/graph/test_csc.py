"""CSC adjacency + sampled ego-net extraction vs brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CSCGraph, Graph, csc_cache_stats, sorted_unique
from repro.graph.csc import SampledSubgraph


def random_symmetric_graph(num_nodes: int, num_undirected: int,
                           seed: int) -> np.ndarray:
    """A (2, 2m) symmetric edge list with ragged degrees, no self-loops."""
    rng = np.random.default_rng(seed)
    # Skewed endpoints: low ids are hubs, high ids often isolated.
    src = rng.integers(0, max(1, num_nodes // 2), size=num_undirected)
    dst = rng.integers(0, num_nodes, size=num_undirected)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keys = np.unique(lo * num_nodes + hi)
    lo, hi = keys // num_nodes, keys % num_nodes
    return np.stack([np.concatenate([lo, hi]),
                     np.concatenate([hi, lo])]).astype(np.int64)


def brute_neighbors(edge_index: np.ndarray, node: int) -> np.ndarray:
    src, dst = edge_index
    return np.sort(src[dst == node])


def brute_ego_nodes(edge_index: np.ndarray, num_nodes: int,
                    seeds: np.ndarray, radius: int) -> np.ndarray:
    """All nodes within ``radius`` hops of any seed (BFS reference)."""
    reached = np.zeros(num_nodes, dtype=bool)
    reached[seeds] = True
    frontier = set(int(s) for s in seeds)
    for _ in range(radius):
        nxt = set()
        for v in frontier:
            for u in brute_neighbors(edge_index, v):
                if not reached[u]:
                    reached[u] = True
                    nxt.add(int(u))
        frontier = nxt
    return np.flatnonzero(reached)


class TestLayout:
    def test_neighbors_match_brute_force(self):
        edges = random_symmetric_graph(40, 120, seed=0)
        csc = CSCGraph.from_edge_index(edges, 40)
        for v in range(40):
            assert np.array_equal(csc.neighbors(v),
                                  brute_neighbors(edges, v))

    def test_degrees(self):
        edges = random_symmetric_graph(40, 120, seed=1)
        csc = CSCGraph.from_edge_index(edges, 40)
        src, dst = edges
        assert np.array_equal(csc.degrees(),
                              np.bincount(dst, minlength=40))

    def test_empty_graph(self):
        csc = CSCGraph.from_edge_index(np.zeros((2, 0), dtype=np.int64), 5)
        assert csc.num_edges == 0
        assert np.array_equal(csc.degrees(), np.zeros(5, dtype=np.int64))
        sub = csc.ego_net(np.array([0, 4]), radius=2, fanout=3,
                          rng=np.random.default_rng(0))
        assert sub.num_edges == 0
        assert np.array_equal(np.sort(sub.nodes), [0, 4])

    def test_boundary_node_ids(self):
        """Edges touching node 0 and node n-1 land in the right columns."""
        n = 10
        edges = np.array([[0, n - 1], [n - 1, 0]], dtype=np.int64)
        csc = CSCGraph.from_edge_index(edges, n)
        assert np.array_equal(csc.neighbors(0), [n - 1])
        assert np.array_equal(csc.neighbors(n - 1), [0])
        assert csc.neighbors(5).size == 0

    def test_neighbors_range_check(self):
        csc = CSCGraph.from_edge_index(np.zeros((2, 0), dtype=np.int64), 3)
        with pytest.raises(IndexError):
            csc.neighbors(3)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSCGraph(np.array([0, 1]), np.zeros(0, dtype=np.int64), 3)


class TestSampleNeighbors:
    def test_exact_when_fanout_covers_degree(self):
        edges = random_symmetric_graph(30, 80, seed=2)
        csc = CSCGraph.from_edge_index(edges, 30)
        src, dst = csc.sample_neighbors(np.arange(30), fanout=None,
                                        rng=np.random.default_rng(0))
        # fanout=None returns every in-edge exactly once.
        order = np.lexsort((src, dst))
        ref = np.lexsort((edges[0], edges[1]))
        assert np.array_equal(src[order], edges[0][ref])
        assert np.array_equal(dst[order], edges[1][ref])

    def test_fanout_caps_per_node(self):
        edges = random_symmetric_graph(30, 150, seed=3)
        csc = CSCGraph.from_edge_index(edges, 30)
        fanout = 3
        src, dst = csc.sample_neighbors(np.arange(30), fanout=fanout,
                                        rng=np.random.default_rng(1))
        counts = np.bincount(dst, minlength=30)
        degrees = csc.degrees()
        assert np.array_equal(counts, np.minimum(degrees, fanout))
        # Every sampled edge is a real edge, without replacement.
        for v in np.flatnonzero(counts):
            picked = src[dst == v]
            assert np.unique(picked).size == picked.size
            assert np.isin(picked, csc.neighbors(v)).all()

    def test_seeded_replay_is_bitwise(self):
        edges = random_symmetric_graph(50, 300, seed=4)
        csc = CSCGraph.from_edge_index(edges, 50)
        a = csc.sample_neighbors(np.arange(50), 4, np.random.default_rng(7))
        b = csc.sample_neighbors(np.arange(50), 4, np.random.default_rng(7))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_isolated_nodes_contribute_nothing(self):
        edges = np.array([[1, 2], [2, 1]], dtype=np.int64)
        csc = CSCGraph.from_edge_index(edges, 6)
        src, dst = csc.sample_neighbors(np.array([0, 3, 5]), 4,
                                        np.random.default_rng(0))
        assert src.size == 0 and dst.size == 0


def looped_neighbors(csc: CSCGraph, nodes: np.ndarray):
    """The per-node loop the batched sampler replaced, in the branches
    that draw nothing (``fanout=None``, or every degree <= fanout)."""
    src_parts, dst_parts = [], []
    for v in np.asarray(nodes, dtype=np.int64):
        nbrs = csc.indices[csc.indptr[v]:csc.indptr[v + 1]]
        if nbrs.shape[0] == 0:
            continue
        src_parts.append(nbrs)
        dst_parts.append(np.full(nbrs.shape[0], v, dtype=np.int64))
    if not src_parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(src_parts), np.concatenate(dst_parts)


class CountingRng:
    """Generator proxy that counts every method call made on it."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


def star(degree: int) -> CSCGraph:
    """Node 0 joined to nodes ``1 .. degree``."""
    leaves = np.arange(1, degree + 1)
    hub = np.zeros(degree, dtype=np.int64)
    edges = np.stack([np.concatenate([leaves, hub]),
                      np.concatenate([hub, leaves])])
    return CSCGraph.from_edge_index(edges, degree + 1)


def hub_inclusion(csc: CSCGraph, fanout: int, draws: int,
                  seed: int) -> np.ndarray:
    """Share of ``draws`` samples of node 0 that include each neighbour.

    ``draws`` copies of node 0 in one call are ``draws`` independent
    samples (one key per candidate edge)."""
    src, _ = csc.sample_neighbors(np.zeros(draws, dtype=np.int64), fanout,
                                  np.random.default_rng(seed))
    nbrs = csc.neighbors(0)
    assert src.size == draws * fanout
    return np.bincount(np.searchsorted(nbrs, src),
                       minlength=nbrs.size) / draws


class TestSamplingLaw:
    """The batched draw keeps the per-node ``Generator.choice`` law."""

    DRAWS = 4000

    def test_uniform_inclusion_is_fanout_over_degree(self):
        freq = hub_inclusion(star(10), fanout=3, draws=self.DRAWS, seed=0)
        # Binomial std at p = 0.3 over 4000 draws is 0.0072: 0.04 is 5.5σ.
        assert np.abs(freq - 3 / 10).max() < 0.04


class TestRngConsumption:
    def test_one_draw_per_hop_not_per_node(self):
        edges = random_symmetric_graph(400, 4000, seed=14)
        csc = CSCGraph.from_edge_index(edges, 400)
        assert (csc.degrees() > 4).sum() > 50
        rng = CountingRng(0)
        sub = csc.ego_net(np.arange(0, 400, 5), radius=3, fanout=4, rng=rng)
        assert sub.num_nodes > 100
        assert 1 <= rng.calls <= 3

    def test_no_draws_without_a_choice(self):
        edges = random_symmetric_graph(60, 200, seed=15)
        csc = CSCGraph.from_edge_index(edges, 60)
        rng = CountingRng(0)
        csc.ego_net(np.arange(10), radius=2, fanout=None, rng=rng)
        csc.sample_neighbors(np.arange(60), int(csc.degrees().max()), rng)
        assert rng.calls == 0

    @pytest.mark.parametrize("seed", [16, 17])
    def test_unsampled_output_bitwise_equals_per_node_loop(self, seed):
        edges = random_symmetric_graph(70, 250, seed=seed)
        csc = CSCGraph.from_edge_index(edges, 70)
        order = np.random.default_rng(seed).permutation(70)
        for fanout in (None, int(csc.degrees().max())):
            for nodes in (np.concatenate([order, order[:9]]), order[:0],
                          np.array([69, 0, 69])):
                got = csc.sample_neighbors(nodes, fanout,
                                           np.random.default_rng(0))
                want = looped_neighbors(csc, nodes)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    assert np.array_equal(g, w)


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**40, 2**40), max_size=60))
    def test_equals_np_unique(self, values):
        arr = np.array(values, dtype=np.int64)
        got = sorted_unique(arr)
        assert got.dtype == arr.dtype
        assert np.array_equal(got, np.unique(arr))

    @pytest.mark.parametrize("values", [
        [], [7], [-3], [5, 5, 5, 5], [-1, -1, 0, -1], [3, -2, 3, -2, 9]])
    def test_edge_cases(self, values):
        arr = np.array(values, dtype=np.int64)
        got = sorted_unique(arr)
        assert got.dtype == arr.dtype
        assert np.array_equal(got, np.unique(arr))

    def test_flattens_like_np_unique(self):
        arr = np.array([[4, 1], [1, 4]], dtype=np.int64)
        assert np.array_equal(sorted_unique(arr), np.unique(arr))


class TestEgoNet:
    def test_exact_matches_bfs_reference(self):
        edges = random_symmetric_graph(60, 200, seed=7)
        csc = CSCGraph.from_edge_index(edges, 60)
        for radius in (1, 2, 3):
            seeds = np.array([0, 7, 59])
            sub = csc.ego_net(seeds, radius=radius, fanout=None,
                              rng=np.random.default_rng(0))
            ref_nodes = brute_ego_nodes(edges, 60, seeds, radius)
            assert np.array_equal(np.sort(sub.nodes), ref_nodes)
            # Edge set: every edge whose *destination* is within
            # radius-1 hops (plus its mirror), relabelled locally.
            inner = brute_ego_nodes(edges, 60, seeds, radius - 1)
            src, dst = edges
            keep = np.isin(dst, inner)
            lookup = np.full(60, -1, dtype=np.int64)
            lookup[sub.nodes] = np.arange(sub.num_nodes)
            m = sub.num_nodes
            expect = np.unique(np.concatenate(
                [lookup[src[keep]] * m + lookup[dst[keep]],
                 lookup[dst[keep]] * m + lookup[src[keep]]]))
            got = np.unique(sub.edge_index[0] * m + sub.edge_index[1])
            assert np.array_equal(got, expect)

    def test_seeds_come_first_and_mask(self):
        edges = random_symmetric_graph(40, 150, seed=8)
        csc = CSCGraph.from_edge_index(edges, 40)
        seeds = np.array([3, 11, 11, 5])          # duplicates collapse
        sub = csc.ego_net(seeds, radius=2, fanout=3,
                          rng=np.random.default_rng(0))
        assert sub.num_seeds == 3
        assert np.array_equal(sub.nodes[:3], [3, 5, 11])
        mask = sub.seed_mask()
        assert mask[:3].all() and not mask[3:].any()

    def test_subgraph_is_symmetric_and_deduped(self):
        edges = random_symmetric_graph(50, 250, seed=9)
        csc = CSCGraph.from_edge_index(edges, 50)
        sub = csc.ego_net(np.arange(0, 50, 7), radius=2, fanout=4,
                          rng=np.random.default_rng(3))
        src, dst = sub.edge_index
        m = sub.num_nodes
        keys = src * m + dst
        assert np.unique(keys).size == keys.size
        mirror = np.sort(dst * m + src)
        assert np.array_equal(np.sort(keys), mirror)
        assert (src < m).all() and (dst < m).all()
        assert (src >= 0).all() and (dst >= 0).all()

    def test_seeded_replay_is_bitwise(self):
        edges = random_symmetric_graph(80, 400, seed=10)
        csc = CSCGraph.from_edge_index(edges, 80)
        seeds = np.array([1, 2, 40, 79])
        a = csc.ego_net(seeds, 2, 5, np.random.default_rng(11))
        b = csc.ego_net(seeds, 2, 5, np.random.default_rng(11))
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.edge_index, b.edge_index)

    def test_to_graph_gathers_rows(self):
        edges = random_symmetric_graph(30, 100, seed=11)
        csc = CSCGraph.from_edge_index(edges, 30)
        sub = csc.ego_net(np.array([0, 1]), radius=1, fanout=None,
                          rng=np.random.default_rng(0))
        x = np.arange(30, dtype=float)[:, None]
        y = np.arange(30)
        g = sub.to_graph(x, y)
        assert np.array_equal(g.x[:, 0], sub.nodes.astype(float))
        assert np.array_equal(g.y, sub.nodes)
        assert g.num_nodes == sub.num_nodes

    def test_bad_arguments(self):
        csc = CSCGraph.from_edge_index(np.zeros((2, 0), dtype=np.int64), 4)
        with pytest.raises(ValueError, match="radius"):
            csc.ego_net(np.array([0]), radius=0, fanout=2,
                        rng=np.random.default_rng(0))
        with pytest.raises(IndexError, match="out of range"):
            csc.ego_net(np.array([4]), radius=1, fanout=2,
                        rng=np.random.default_rng(0))


class TestCache:
    def test_from_graph_identity_cache(self):
        edges = random_symmetric_graph(20, 60, seed=12)
        graph = Graph(edges, num_nodes=20)
        before = csc_cache_stats()
        a = CSCGraph.from_graph(graph)
        b = CSCGraph.from_graph(graph)
        after = csc_cache_stats()
        assert a is b
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"] + 1

    def test_distinct_graphs_distinct_structures(self):
        edges = random_symmetric_graph(20, 60, seed=13)
        a = CSCGraph.from_graph(Graph(edges, num_nodes=20))
        b = CSCGraph.from_graph(Graph(edges.copy(), num_nodes=20))
        assert a is not b
        assert np.array_equal(a.indices, b.indices)
