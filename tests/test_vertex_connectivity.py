"""graph.vertex_connectivity's prefix fans against three references.

The references are the Esfahanian-Hakimi loop that the prefix fans
replaced (util.eh_vertex_connectivity), subset enumeration
(util.naive_vertex_connectivity, on the graphs small enough for it) and,
when installed, networkx. The graphs are seeded random graphs, random
graphs with a planted small separator (util.bottleneck_graph), and
L(HL_3..5) of every named family with random edges removed: a uniform
random subset, or all but a few random edges that leave the clique of one
base vertex.

When kappa < delta, the exactness proof has two cases: v0, the first
vertex of minimum degree, lies in every minimum separator (a pair flow
between its neighbours finds kappa), or it lies outside one (a prefix
fan finds it). Both must occur among these graphs.

Each fan starts from paths read off the adjacency lists; every start the
fans take on these graphs and on L(HL_3..5) is checked to be a feasible
flow.
"""

from collections import Counter

import pytest

from hlmenger import NAMED_FAMILIES, remove_edges, vertex_connectivity
from hlmenger.flow import DirectedFlow
from hlmenger.graph import split_network
from hlmenger.rng import SplitMix64

from util import (
    bottleneck_graph,
    eh_vertex_connectivity,
    lgraph,
    naive_vertex_connectivity,
    random_graph,
)

try:
    import networkx as nx
except ImportError:         # networkx is an optional test-time oracle
    nx = None


def separator_case(g, kappa):
    """None unless 0 < kappa < delta. Otherwise "inside" when v0 lies in
    every minimum separator and "outside" when it misses one. A separator
    of size kappa without v0 separates v0 from some non-neighbour v, so
    kappa(v0, v) = kappa; conversely a minimum v0-v separator of that
    size is a minimum separator without v0."""
    n = g.n_vertices
    if not 0 < kappa < g.min_degree():
        return None
    v0 = min(range(n), key=g.degree)
    net = split_network(g)
    far = set(range(n)) - set(g.neighbors(v0)) - {v0}
    if any(net.max_flow(v0 + n, v) == kappa for v in far):
        return "outside"
    return "inside"


def check(g, naive: bool) -> None:
    kappa = vertex_connectivity(g)
    assert kappa == eh_vertex_connectivity(g)
    if naive:
        assert kappa == naive_vertex_connectivity(g)
    if nx is not None:
        h = nx.Graph()
        h.add_nodes_from(range(g.n_vertices))
        h.add_edges_from(g.edges)
        assert kappa == nx.node_connectivity(h)


def base_clique_faults(L, rng):
    """All but 0..3 random edges that leave the clique of the line
    vertices at one random base vertex."""
    b = rng.randbelow(L.base.n_vertices)
    clique = {i for i, e in enumerate(L.edge_of_vertex) if b in e}
    leaving = [e for e in L.graph.edges if (e[0] in clique) != (e[1] in clique)]
    kept = set(rng.sample_indices(len(leaving), rng.randbelow(4)))
    return [e for i, e in enumerate(leaving) if i not in kept]


def faulted_line_graphs(n):
    for kind in NAMED_FAMILIES:
        L = lgraph(kind, n)
        g = L.graph
        m = len(g.edges)
        for seed in range(6):
            rng = SplitMix64(100 * n + seed)
            if seed % 2:
                faults = base_clique_faults(L, rng)
            else:
                idx = rng.sample_indices(m, rng.randbelow(m // 3 + 1))
                faults = [g.edges[i] for i in idx]
            yield remove_edges(g, faults)


def random_graphs(seeds):
    return (random_graph(seed, max_vertices=10, max_edges=30)
            for seed in seeds)


def bottleneck_graphs(seeds):
    return (bottleneck_graph(seed) for seed in seeds)


@pytest.mark.parametrize("first", range(0, 300, 60))
def test_random_graphs(first):
    for g in random_graphs(range(first, first + 60)):
        check(g, naive=True)


@pytest.mark.parametrize("first", range(0, 200, 50))
def test_bottleneck_graphs(first):
    for g in bottleneck_graphs(range(first, first + 50)):
        check(g, naive=True)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_faulted_line_graphs(n):
    for g in faulted_line_graphs(n):
        check(g, naive=n == 3)


@pytest.mark.parametrize("first", range(0, 120, 40))
def test_cap_gives_the_smaller_of_kappa_and_the_cap(first):
    """vertex_connectivity(g, cap) == min(kappa, cap) for every cap from 0
    to one past the minimum degree, on random and bottleneck graphs."""
    seen = Counter()
    for g in (*random_graphs(range(first, first + 40)),
              *bottleneck_graphs(range(first, first + 10))):
        kappa = naive_vertex_connectivity(g)
        for cap in range(g.min_degree() + 2):
            assert vertex_connectivity(g, cap) == min(kappa, cap), \
                (g.n_vertices, g.edges, cap)
            seen["capped" if cap < kappa else "exact"] += 1
    assert seen["capped"] and seen["exact"], seen


def test_both_separator_cases_occur():
    cases = Counter(
        separator_case(g, eh_vertex_connectivity(g))
        for graphs in (random_graphs(range(300)), bottleneck_graphs(range(200)),
                       *(faulted_line_graphs(n) for n in (3, 4, 5)))
        for g in graphs)
    assert cases["inside"] > 0 and cases["outside"] > 0, cases


def test_fan_starts_are_feasible(monkeypatch):
    """Every fan start is a set of paths from the source node into v_in
    over open arcs, no two of them sharing an inner node, and no more of
    them than the cap; starts with two-hop paths (5 arcs) must occur."""
    lengths = Counter()
    max_flow = DirectedFlow.max_flow

    def checked(net, s, t, cutoff=None, start=()):
        if s == len(net.adj) - 1:                   # the source node: a fan
            assert cutoff is not None and len(start) <= cutoff
            head, tail, cap = net.head, net.tail, net._template
            inner = [head[a] for path in start for a in path[:-1]]
            assert len(set(inner)) == len(inner)
            for path in start:
                assert tail[path[0]] == s and head[path[-1]] == t
                assert all(head[a] == tail[b] for a, b in zip(path, path[1:]))
                assert all(cap[a] for a in path)
                lengths[len(path)] += 1
        return max_flow(net, s, t, cutoff, start)

    monkeypatch.setattr(DirectedFlow, "max_flow", checked)
    for graphs in (random_graphs(range(300)), bottleneck_graphs(range(200)),
                   *(faulted_line_graphs(n) for n in (3, 4, 5)),
                   (lgraph(kind, n).graph for kind in NAMED_FAMILIES
                    for n in (3, 4, 5))):
        for g in graphs:
            vertex_connectivity(g)
    assert lengths[3] > 0 and lengths[5] > 0, lengths
