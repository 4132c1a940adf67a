"""The component-floor check against an independent oracle.

_campaign_exec.largest_component_under_faults decides each fault set F by
searches around F's edges. Every case here compares it with
graph.largest_component_size(remove_edges(g, F)), a BFS over a rebuilt
graph that shares no code with it: on seeded random graphs (disconnected
ones and isolated vertices included) with F of every size, on L(HL_3..5)
of every named family, and on the fault sets of the lemma41 campaign on
L(CQ_6) at budget 23, its adversarial suite and 2,000 draws at each of
seeds 1-10.
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
