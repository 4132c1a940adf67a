"""networkx as a third oracle for the exact connectivity primitives.

Skipped when networkx is not installed: the package itself has no
dependencies, and networkx is only a test-time cross-check.
"""

import pytest

from hlmenger import (
    edge_connectivity,
    max_edge_disjoint_paths,
    remove_edges,
    tightness_conditional,
    vertex_connectivity,
)
from hlmenger.graph import split_network

from util import lgraph, random_graph

nx = pytest.importorskip("networkx")
local_edge_connectivity = nx.connectivity.local_edge_connectivity
local_node_connectivity = nx.connectivity.local_node_connectivity


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n_vertices))
    h.add_edges_from(g.edges)
    return h


@pytest.mark.parametrize("seed", range(60))
def test_random_graphs_match_networkx(seed):
    g = random_graph(seed, max_vertices=9, max_edges=20)
    h = to_nx(g)
    assert edge_connectivity(g) == nx.edge_connectivity(h)
    assert vertex_connectivity(g) == nx.node_connectivity(h)
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            assert max_edge_disjoint_paths(g, u, v).value == \
                local_edge_connectivity(h, u, v), (u, v)


def assert_local_vertex_connectivity_matches(g):
    """Every non-adjacent pair's flow in the unit-arc split network of
    vertex_connectivity equals networkx's local node connectivity."""
    h = to_nx(g)
    aux = nx.connectivity.build_auxiliary_node_connectivity(h)
    residual = nx.algorithms.flow.build_residual_network(aux, "capacity")
    net = split_network(g)
    n = g.n_vertices
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                assert net.max_flow(u + n, v) == local_node_connectivity(
                    h, u, v, auxiliary=aux, residual=residual), (u, v)


@pytest.mark.parametrize("seed", range(60))
def test_local_vertex_connectivity_on_random_graphs(seed):
    assert_local_vertex_connectivity_matches(
        random_graph(seed, max_vertices=9, max_edges=20))


def test_local_vertex_connectivity_on_faulted_line_graph():
    L = lgraph("crossed", 4)
    faulty = remove_edges(L.graph, tightness_conditional(L).fault_set)
    assert_local_vertex_connectivity_matches(faulty)


@pytest.mark.parametrize("kind,seed", [("hypercube", None),
                                       ("crossed", None), ("random", 2)])
def test_line_graphs_of_hl4_match_networkx(kind, seed):
    L = lgraph(kind, 4, seed)
    g = L.graph
    h = to_nx(g)
    assert edge_connectivity(g) == nx.edge_connectivity(h) == 6
    assert vertex_connectivity(g) == nx.node_connectivity(h) == 6
    # the conditional tightness faults make local values differ by pair
    faulty = remove_edges(g, tightness_conditional(L).fault_set)
    hf = to_nx(faulty)
    values = set()
    for v in range(1, g.n_vertices):
        value = max_edge_disjoint_paths(faulty, 0, v).value
        assert value == local_edge_connectivity(hf, 0, v), v
        values.add(value)
    assert len(values) > 1
    assert edge_connectivity(faulty) == nx.edge_connectivity(hf)
    assert vertex_connectivity(faulty) == nx.node_connectivity(hf)
