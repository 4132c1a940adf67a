"""The component-floor check against an independent oracle.

_campaign_exec.largest_component_under_faults decides each fault set F by
joining the ends of F's edges through live common neighbours and by
searches around F's edges. Every case here compares it with
graph.largest_component_size(remove_edges(g, F)), a BFS over a rebuilt
graph that shares no code with it: on hand-built graphs whose fault
edges' ends share a neighbour through a faulted edge, on seeded random
graphs (disconnected ones and isolated vertices included, and dense ones
full of triangles) with F of every size, on L(HL_3..5) of every named
family, and on the fault sets of the lemma41 campaign on L(CQ_6) at
budget 23, its adversarial suite and 2,000 draws at each of seeds 1-10.
"""

from itertools import islice

import pytest

from hlmenger import (
    NAMED_FAMILIES,
    build_graph,
    components,
    largest_component_size,
    remove_edges,
)
from hlmenger._campaign_exec import component_index, \
    largest_component_under_faults
from hlmenger.menger import FaultCampaign, _sample_stream, \
    adversarial_fault_indices
from hlmenger.rng import SplitMix64

from util import lgraph, random_graph


def oracle(g, idx) -> int:
    return largest_component_size(remove_edges(g, [g.edges[k] for k in idx]))


def assert_matches(g, sets) -> dict:
    """Compare every set; returns how often the answer fell below the
    largest component of g, and how often with g disconnected."""
    index = component_index(g)
    whole = largest_component_size(g)
    split = len(components(g)) > 1
    seen = {"shrunk": 0, "shrunk_disconnected": 0}
    for idx in sets:
        expected = oracle(g, idx)
        assert largest_component_under_faults(index, idx) == expected, \
            (g.n_vertices, g.edges, idx)
        if expected < whole:
            seen["shrunk"] += 1
            seen["shrunk_disconnected"] += split
    return seen


def test_empty_and_edgeless_graphs():
    for n in (0, 1, 5):
        g = build_graph(n, [])
        assert largest_component_under_faults(component_index(g), ()) == \
            min(n, 1)


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
        for key, count in assert_matches(g, sets).items():
            totals[key] += count
        totals["isolated"] += g.min_degree() == 0
    assert all(totals.values()), totals


# (n, edges, F as edges): the ends u < v of F's first edge share
# neighbours x, each of which keeps only one of its two edges to them, and
# nothing else joins u and v, so the largest component shrinks
HALF_DEAD_COMMON_NEIGHBOURS = [
    # u, v = 0, 1 and x = 2 keeps {x, v}; u's side is the larger
    (7, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 6), (1, 5), (2, 5)],
     [(0, 1), (0, 2)]),
    # u, v = 0, 2 and x = 1 keeps {u, x}; v's side is the larger
    (7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 6), (0, 5), (1, 5)],
     [(0, 2), (1, 2)]),
    # u, v = 0, 1: x = 2 keeps {x, v} and x = 3 keeps {u, x}
    (6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4), (2, 5)],
     [(0, 1), (0, 2), (1, 3)]),
    # u, v = 0, 1: x = 2 and x = 3 keep {x, v}, x = 4 keeps {u, x}
    (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (1, 4)],
     [(0, 1), (0, 2), (0, 3), (1, 4)]),
]


@pytest.mark.parametrize("n, edges, faults", HALF_DEAD_COMMON_NEIGHBOURS)
def test_a_common_neighbour_joins_only_through_two_live_edges(n, edges,
                                                              faults):
    g = build_graph(n, edges)
    idx = tuple(sorted(g.edges.index(e) for e in faults))
    assert oracle(g, idx) < largest_component_size(g)
    assert_matches(g, [idx])


@pytest.mark.parametrize("block", range(4))
def test_dense_random_graphs_with_every_fault_set_size(block):
    """10 graphs per block, up to 16 vertices and 60 edges, so most fault
    edges' ends share neighbours; for each, three seeded F of every size
    from 0 to E."""
    shrunk = 0
    for seed in range(1000 + 10 * block, 1010 + 10 * block):
        g = random_graph(seed, max_vertices=16, max_edges=60)
        rng = SplitMix64(seed)
        m = len(g.edges)
        sets = [tuple(rng.sample_indices(m, k)) for k in range(m + 1)
                for _ in range(3)]
        shrunk += assert_matches(g, sets)["shrunk"]
    assert shrunk


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", NAMED_FAMILIES)
def test_line_graphs_under_up_to_half_their_edges(kind, n):
    g = lgraph(kind, n).graph
    m = len(g.edges)
    rng = SplitMix64(100 * n + NAMED_FAMILIES.index(kind))
    sets = [tuple(rng.sample_indices(m, rng.randbelow(m // 2 + 1)))
            for _ in range(150)]
    # the boundary of a closed neighbourhood, and every edge at a vertex
    for v in range(0, g.n_vertices, max(1, g.n_vertices // 10)):
        near = {v, *g.neighbors(v)}
        sets.append(tuple(k for k, e in enumerate(g.edges)
                          if (e[0] in near) != (e[1] in near)))
        sets.append(tuple(k for k, e in enumerate(g.edges) if v in e))
    assert assert_matches(g, sets)["shrunk"]


@pytest.mark.parametrize("seed", [None, *range(1, 11)],
                         ids=["adversarial", *map("seed{}".format, range(1, 11))])
def test_lemma41_campaign_sets_on_crossed_6(seed):
    L = lgraph("crossed", 6)
    if seed is None:
        sets = adversarial_fault_indices(L, 23)
    else:
        c = FaultCampaign(mode="sampled", m=23, samples=2000, seed=seed)
        sets = list(islice(_sample_stream(L.graph, c), 2000))
    seen = assert_matches(L.graph, sets)
    assert seen["shrunk"] or seed is not None
