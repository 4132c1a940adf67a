"""networkx as a third oracle for the exact connectivity primitives.

It also checks _campaign_exec.largest_component_under_faults, the plain
component search of g - F that a floor campaign runs on every set where
the floor layout refuses, against nx.connected_components: on seeded
random graphs, disconnected ones and isolated vertices included, and
dense ones full of triangles, with fault sets of every size.

Skipped when networkx is not installed: the package itself has no
dependencies, and networkx is only a test-time cross-check.
"""

from itertools import combinations

import pytest

from hlmenger import (
    build_graph,
    edge_connectivity,
    max_edge_disjoint_paths,
    remove_edges,
    tightness_conditional,
    vertex_connectivity,
)
from hlmenger._campaign_exec import largest_component_under_faults
from hlmenger.graph import split_network
from hlmenger.rng import SplitMix64

from util import lgraph, random_graph

nx = pytest.importorskip("networkx")
local_edge_connectivity = nx.connectivity.local_edge_connectivity
local_node_connectivity = nx.connectivity.local_node_connectivity


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n_vertices))
    h.add_edges_from(g.edges)
    return h


def assert_components_match(g, sets) -> dict:
    """largest_component_under_faults against networkx for every F;
    returns how often it fell below the largest component of g, and how
    often with g disconnected."""
    h = to_nx(g)
    whole = max(map(len, nx.connected_components(h)), default=0)
    split = nx.number_connected_components(h) > 1
    seen = {"shrunk": 0, "shrunk_disconnected": 0}
    for idx in sets:
        hf = h.copy()
        hf.remove_edges_from(g.edges[k] for k in idx)
        expected = max(map(len, nx.connected_components(hf)), default=0)
        assert largest_component_under_faults(g, idx) == expected, \
            (g.n_vertices, g.edges, idx)
        if expected < whole:
            seen["shrunk"] += 1
            seen["shrunk_disconnected"] += split
    return seen


def test_empty_and_edgeless_graphs():
    for n in (0, 1, 5):
        g = build_graph(n, [])
        assert largest_component_under_faults(g, ()) == min(n, 1)


@pytest.mark.parametrize("block", range(10))
def test_random_graphs_with_every_fault_set_size(block):
    """20 graphs per block, up to 40 vertices; for each, one seeded F of
    every size from 0 to E."""
    totals = {"shrunk": 0, "shrunk_disconnected": 0, "isolated": 0}
    for seed in range(20 * block, 20 * block + 20):
        g = random_graph(seed, max_vertices=40, max_edges=90)
        rng = SplitMix64(seed)
        m = len(g.edges)
        sets = [tuple(rng.sample_indices(m, k)) for k in range(m + 1)]
        for key, count in assert_components_match(g, sets).items():
            totals[key] += count
        totals["isolated"] += g.min_degree() == 0
    assert all(totals.values()), totals


@pytest.mark.parametrize("block", range(4))
def test_dense_random_graphs_with_every_fault_set_size(block):
    """10 graphs per block, up to 16 vertices and 60 edges, full of
    triangles; for each, three seeded F of every size from 0 to E."""
    shrunk = 0
    for seed in range(1000 + 10 * block, 1010 + 10 * block):
        g = random_graph(seed, max_vertices=16, max_edges=60)
        rng = SplitMix64(seed)
        m = len(g.edges)
        sets = [tuple(rng.sample_indices(m, k)) for k in range(m + 1)
                for _ in range(3)]
        shrunk += assert_components_match(g, sets)["shrunk"]
    assert shrunk


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


@pytest.mark.parametrize("seed", range(40))
def test_edge_connectivity_below_min_degree_matches_networkx(seed):
    """Two cliques joined by fewer edges than the smaller one's degree,
    under a random relabelling: lambda is the number of joining edges,
    below the minimum degree, so edge_connectivity must find a dominating
    vertex in the clique away from vertex 0 and run its flow."""
    rng = SplitMix64(seed)
    a, b = 3 + rng.randbelow(5), 3 + rng.randbelow(5)
    n = a + b
    label = list(range(n))
    rng.shuffle(label)
    edges = [*combinations(range(a), 2), *combinations(range(a, n), 2)]
    joins = 1 + rng.randbelow(min(a, b) - 2)
    edges += [(k // b, a + k % b) for k in rng.sample_indices(a * b, joins)]
    g = build_graph(n, [(label[x], label[y]) for x, y in edges])
    assert edge_connectivity(g) == nx.edge_connectivity(to_nx(g)) == joins
    assert joins < g.min_degree()


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
