"""Cluster enumeration and counting bounds."""

from __future__ import annotations

import itertools

import pytest

from ktspin.clusters import (
    AdjacencyGraph,
    cluster_count_bound,
    distances,
    enumerate_clusters,
)
from ktspin.errors import DanglingVertexId, EmptySet
from conftest import grid_pairs, make_model, tf_edge_matrix, topology_pairs
from reference_impl import is_connected_subset


def path_graph(n):
    return AdjacencyGraph(n, topology_pairs("path", n))


def complete_graph(n):
    return AdjacencyGraph(n, list(itertools.combinations(range(n), 2)))


def brute_clusters(graph, root, size):
    out = []
    for combo in itertools.combinations(range(graph.n), size):
        if root in combo and is_connected_subset(graph, combo):
            out.append(combo)
    return out


def test_graph_dedups_parallel_edges():
    g = AdjacencyGraph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.neighbors == ((1,), (0, 2), (1,))
    assert g.degree() == 2
    with pytest.raises(DanglingVertexId):
        AdjacencyGraph(2, [(0, 5)])


def test_from_model_matches_edges():
    mat = tf_edge_matrix()
    m = make_model([1.0] * 3, [(0, 1, mat), (0, 1, mat), (2, 1, mat)])
    g = AdjacencyGraph.from_model(m)
    assert g.neighbors == ((1,), (0, 2), (1,))


def test_distances_multi_source_and_unreachable():
    g = AdjacencyGraph(6, [(0, 1), (1, 2), (2, 3)])
    assert distances(g, [0]) == [0, 1, 2, 3, float("inf"), float("inf")]
    assert distances(g, [0, 3]) == [0, 1, 1, 0, float("inf"), float("inf")]
    with pytest.raises(DanglingVertexId):
        distances(g, [9])


def test_path_interior_vertex_has_p_clusters():
    # windows of length p through an interior vertex, p-1 slack on both sides
    g = path_graph(15)
    for p in range(1, 8):
        assert len(enumerate_clusters(g, 7, p)) == p


def test_path_end_vertex_has_one_cluster():
    g = path_graph(10)
    for p in range(1, 6):
        clusters = enumerate_clusters(g, 0, p)
        assert clusters == [tuple(range(p))]


def test_complete_graph_counts_are_binomial():
    g = complete_graph(5)
    from math import comb

    for p in range(1, 6):
        assert len(enumerate_clusters(g, 0, p)) == comb(4, p - 1)


def test_enumeration_matches_brute_force():
    graphs = [
        path_graph(7),
        AdjacencyGraph(8, topology_pairs("ring", 8)),
        AdjacencyGraph(9, grid_pairs(3, 3)),
        complete_graph(5),
    ]
    for g in graphs:
        for root in range(0, g.n, 2):
            for size in range(1, 5):
                assert enumerate_clusters(g, root, size) == sorted(
                    brute_clusters(g, root, size)
                )


def test_enumeration_validates_arguments():
    g = path_graph(3)
    with pytest.raises(DanglingVertexId):
        enumerate_clusters(g, 3, 2)
    with pytest.raises(EmptySet):
        enumerate_clusters(g, 0, 0)


def test_count_bound_on_grid():
    g = AdjacencyGraph(16, grid_pairs(4, 4))
    assert g.degree() == 4
    for size in range(1, 6):
        assert cluster_count_bound(g, size) == 16 ** (size - 1)
        for root in range(g.n):
            assert len(enumerate_clusters(g, root, size)) <= cluster_count_bound(g, size)
