"""Graph-algorithm tests (reachability, components, BFS, triangles)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.graph import (Graph, adjacency_lists, bfs_distances,
                         connected_components, is_connected,
                         largest_component, triangle_count)
from repro.graph.algorithms import reachable_pairs


def path_graph(n: int) -> Graph:
    src = np.arange(n - 1)
    dst = src + 1
    edges = np.stack([np.concatenate([src, dst]),
                      np.concatenate([dst, src])])
    return Graph(edges, num_nodes=n)


def reachability(graph: Graph, radius: int) -> np.ndarray:
    """Dense boolean R with ``R[i, j]`` iff ``1 <= d(i, j) <= radius``."""
    source, target = reachable_pairs(graph.edge_index, graph.num_nodes,
                                     radius)
    reach = np.zeros((graph.num_nodes, graph.num_nodes), dtype=bool)
    reach[source, target] = True
    return reach


class TestReachability:
    def test_one_hop_is_adjacency(self, triangle_graph):
        r = reachability(triangle_graph, 1)
        assert r[0, 1] and r[1, 2] and r[2, 3]
        assert not r[0, 3]

    def test_two_hop_reaches_pendant(self, triangle_graph):
        r = reachability(triangle_graph, 2)
        assert r[0, 3] and r[3, 0]

    def test_diagonal_excluded(self, triangle_graph):
        for k in (1, 2, 3):
            assert not reachability(triangle_graph, k).diagonal().any()

    def test_path_graph_hops(self):
        g = path_graph(6)
        r3 = reachability(g, 3)
        assert r3[0, 3] and not r3[0, 4]

    def test_invalid_k(self, triangle_graph):
        with pytest.raises(ValueError, match="radius must be >= 1"):
            reachable_pairs(triangle_graph.edge_index,
                            triangle_graph.num_nodes, 0)


class TestBFS:
    def test_distances_on_path(self):
        dist = bfs_distances(path_graph(5), 0)
        assert dist.tolist() == [0, 1, 2, 3, 4]

    def test_unreachable_is_minus_one(self):
        g = Graph(np.array([[0, 1], [1, 0]]), num_nodes=3)
        assert bfs_distances(g, 0)[2] == -1

    def test_max_depth_cutoff(self):
        dist = bfs_distances(path_graph(5), 0, max_depth=2)
        assert dist.tolist() == [0, 1, 2, -1, -1]


class TestComponents:
    def test_connected(self, triangle_graph):
        assert is_connected(triangle_graph)

    def test_two_components(self):
        g = Graph(np.array([[0, 1, 2, 3], [1, 0, 3, 2]]), num_nodes=4)
        labels = connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert not is_connected(g)

    def test_largest_component_picks_bigger(self):
        # Path of 3 plus an isolated edge.
        edges = np.array([[0, 1, 1, 2, 3, 4], [1, 0, 2, 1, 4, 3]])
        g = Graph(edges, num_nodes=5, x=np.eye(5), y=np.arange(5))
        giant = largest_component(g)
        assert giant.num_nodes == 3
        assert giant.y.tolist() == [0, 1, 2]

    def test_empty_graph_is_connected(self):
        assert is_connected(Graph(np.zeros((2, 0)), num_nodes=0))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 15).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)),
                             max_size=30))))
    def test_labels_match_coo_adjacency(self, case):
        """One-directional edges, duplicates and self-loops: the labels
        equal those of ``Graph.adjacency()``'s COO-built matrix."""
        n, pairs = case
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        g = Graph(edges, num_nodes=n)
        _, want = sp.csgraph.connected_components(
            g.adjacency(weighted=False), directed=False)
        got = connected_components(g)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestMisc:
    def test_adjacency_lists(self, triangle_graph):
        lists = adjacency_lists(triangle_graph)
        assert lists[2].tolist() == [0, 1, 3]
        assert lists[3].tolist() == [2]

    def test_triangle_count(self, triangle_graph):
        assert triangle_count(triangle_graph) == 1

    def test_triangle_count_clique(self, two_cliques_graph):
        # Each 4-clique contains C(4,3) = 4 triangles.
        assert triangle_count(two_cliques_graph) == 8
