"""The component-floor check against an independent oracle.

_campaign_exec.largest_component_under_faults decides each fault set F by
joining the ends of F's edges through live common neighbours and by
searches around F's edges, and smallsides.largest_component decides it
from the hosts of F's edges on the base network wherever
smallsides.floor_layout exists. Every case here compares them with
graph.largest_component_size(remove_edges(g, F)), a BFS over a rebuilt
graph that shares no code with either: on hand-built graphs whose fault
edges' ends share a neighbour through a faulted edge, on seeded random
graphs (disconnected ones and isolated vertices included, and dense ones
full of triangles) with F of every size, on L(HL_3..5) of every named
family, on the fault sets of the lemma41 campaign on L(CQ_6) at budget
23, its adversarial suite and 2,000 draws at each of seeds 1-10, and on
sets built to split line vertices off at every floor budget and one
past it, for six families at n = 4-6. The floor layout must refuse
wherever kappa(H) <= mu, and campaigns must take the decider wherever
it exists and the component index only where it does not.
"""

from itertools import islice

import pytest

from hlmenger import (
    NAMED_FAMILIES,
    _campaign_exec,
    build_graph,
    check_component_lemma,
    components,
    largest_component_size,
    line_graph,
    remove_edges,
    smallsides,
)
from hlmenger._campaign_exec import component_index, \
    largest_component_under_faults
from hlmenger.menger import BOUNDS, FaultCampaign, _sample_stream, \
    adversarial_fault_indices
from hlmenger.rng import SplitMix64

from util import lgraph, random_graph, two_k4_minus_e


def oracle(g, idx) -> int:
    return largest_component_size(remove_edges(g, [g.edges[k] for k in idx]))


def assert_matches(g, sets, layout=None) -> dict:
    """Compare every set, with smallsides.largest_component too when a
    layout is given; returns how often the answer fell below the largest
    component of g, and how often with g disconnected."""
    index = component_index(g)
    whole = largest_component_size(g)
    split = len(components(g)) > 1
    seen = {"shrunk": 0, "shrunk_disconnected": 0}
    for idx in sets:
        expected = oracle(g, idx)
        assert largest_component_under_faults(index, idx) == expected, \
            (g.n_vertices, g.edges, idx)
        if layout is not None:
            assert smallsides.largest_component(layout, idx) == expected, \
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
    layout = smallsides.floor_layout(L, 23)
    assert layout is not None
    seen = assert_matches(L.graph, sets, layout)
    assert seen["shrunk"] or seed is not None


FAMILIES = [*NAMED_FAMILIES, "random"]

# the floor checks: lemma32 from n = 3, lemma41 from n = 4, appendixA at 4
FLOOR_CHECKS = ("lemma32", "lemma41", "appendixA")


def cut_sets(L, m, rng):
    """Sets of at most m faults built to split line vertices off: for a
    spread of base vertices u, the cut in L around 1, 2 or 3 edges at u
    and around a 3-edge path from u, each cut kept whole when it fits m
    and cut down to m seeded faults of it otherwise, both alone and with
    seeded faults elsewhere up to m."""
    g, base = L.graph, L.base
    n_edges = len(g.edges)
    out = []
    for u in range(0, base.n_vertices, max(1, base.n_vertices // 6)):
        at_u = base.neighbors(u)
        a = at_u[0]
        b = next(w for w in base.neighbors(a) if w != u)
        c = next(w for w in base.neighbors(b) if w not in (u, a))
        sides = [[(u, w) for w in at_u[:j]] for j in (1, 2, 3)]
        sides.append([(u, a), (a, b), (b, c)])
        for side in sides:
            x = {L.vertex_of_edge[min(e), max(e)] for e in side}
            cut = [k for k, (p, q) in enumerate(g.edges)
                   if (p in x) != (q in x)]
            if len(cut) > m:
                cut = sorted(cut[i] for i in rng.sample_indices(len(cut), m))
            out.append(tuple(cut))
            taken = set(cut)
            rest = [k for k in range(n_edges) if k not in taken]
            extra = rng.sample_indices(len(rest), m - len(cut))
            out.append(tuple(sorted(cut + [rest[i] for i in extra])))
    return out


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("kind", FAMILIES)
def test_floor_decider_on_built_splitting_sets(kind, n):
    """At every floor budget and one past it where the floor layout
    exists, the decider equals the oracle and the component index on the
    built cuts; lemma32 one past its budget, 4n - 6, fits the cut around
    two edges at a base vertex, which leaves V - 2 < V - 1, so failing
    sets must occur."""
    L = lgraph(kind, n, 1 if kind == "random" else None)
    rng = SplitMix64(7000 + 10 * n + FAMILIES.index(kind))
    total = L.graph.n_vertices
    seen = {"failed": 0, "split_past_two": 0}
    for check in FLOOR_CHECKS:
        bound = BOUNDS[check]
        if n < bound.min_n or bound.max_n is not None and n > bound.max_n:
            continue
        budget, floor = bound.faults(n), bound.floor(n)
        for m in (budget, budget + 1):
            layout = smallsides.floor_layout(L, m)
            if layout is None:
                continue
            sets = cut_sets(L, m, rng)
            assert_matches(L.graph, sets, layout)
            for idx in sets:
                size = smallsides.largest_component(layout, idx)
                seen["failed"] += size < floor
                seen["split_past_two"] += size < total - 2
    assert seen["failed"], seen
    assert seen["split_past_two"] or n == 4, seen


class TestFloorLayout:
    def test_refuses_ltq_5_at_m_20(self):
        # kappa(LTQ_5) = 5 = mu = floor(20 / 4); m = 19 gives mu = 4
        L = lgraph("ltq", 5)
        assert smallsides.floor_layout(L, 20) is None
        assert smallsides.floor_layout(L, 19) is not None

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_refuses_n_3_at_m_7(self, kind):
        # kappa(HL_3) = 3 = mu = floor(7 / 2); m = 5 gives mu = 2
        L = lgraph(kind, 3, 1 if kind == "random" else None)
        assert smallsides.floor_layout(L, 7) is None
        assert smallsides.floor_layout(L, 5) is not None

    def test_refuses_two_copies_of_k4_minus_e(self):
        """kappa = 2: mu = floor(m / 2) reaches it at m = 4. There the
        cut around one copy's five edges is four faults at its two
        joining vertices, which are not adjacent, so C is empty and the
        decider without the kappa check calls L - F connected; the five
        line vertices are split off."""
        L = two_k4_minus_e()
        g = L.graph
        for m in range(4):
            assert smallsides.floor_layout(L, m) is not None, m
        for m in range(4, 7):
            assert smallsides.floor_layout(L, m) is None, m
        x = {L.vertex_of_edge[e] for e in L.base.edges if max(e) < 4}
        idx = tuple(k for k, (a, b) in enumerate(g.edges)
                    if (a in x) != (b in x))
        assert len(idx) == 4 and oracle(g, idx) == 7
        assert smallsides.largest_component(smallsides.Layout(L), idx) == 12

    def test_refuses_bases_without_a_dimension_or_below_three(self):
        k4 = build_graph(4, [(a, b) for a in range(4) for b in range(a)])
        assert smallsides.floor_layout(line_graph(k4), 0) is None
        assert smallsides.floor_layout(lgraph("hypercube", 2), 0) is None


def _raises(*args):
    raise AssertionError("largest_component_under_faults called")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("check,kind,n,m,layout", [
    ("lemma41", "crossed", 4, 11, True),
    ("lemma32", "random", 5, 13, True),
    ("appendixA", "mobius0", 4, 11, True),
    # kappa(HL_3) = 3 = mu = floor(7 / 2): the component index decides
    ("lemma32", "crossed", 3, 7, False)])
def test_campaigns_take_the_decider_wherever_the_layout_exists(
        check, kind, n, m, layout, jobs, monkeypatch):
    """With largest_component_under_faults made to raise, a campaign with
    a floor layout runs through at --jobs 1 and 2, with the report of the
    unwrapped fallback path; one without a layout calls it."""
    L = lgraph(kind, n, 1 if kind == "random" else None)
    floor = BOUNDS[check].floor(n)
    c = FaultCampaign(mode="sampled", m=m, samples=100, seed=3,
                      adversarial=True)
    assert (smallsides.floor_layout(L, m) is not None) == layout
    monkeypatch.setattr(_campaign_exec, "_CHUNK_SIZE", 16)
    with monkeypatch.context() as mp:
        # the fallback's reports, for comparison
        mp.setattr(smallsides, "floor_layout", lambda *args: None)
        expected = check_component_lemma(L, m, floor, c, jobs=jobs)
    monkeypatch.setattr(_campaign_exec, "largest_component_under_faults",
                        _raises)
    if not layout:
        with pytest.raises(AssertionError, match="under_faults called"):
            check_component_lemma(L, m, floor, c, jobs=jobs)
        return
    report = check_component_lemma(L, m, floor, c, jobs=jobs)
    assert report.canonical_json() == expected.canonical_json()
    assert report.counts["visited"] > 100


def test_a_floor_campaign_of_no_sets_builds_nothing(monkeypatch):
    def refused(*args):
        raise AssertionError("built for a campaign of no sets")

    monkeypatch.setattr(smallsides, "floor_layout", refused)
    monkeypatch.setattr(_campaign_exec, "component_index", refused)
    L = lgraph("crossed", 5)
    report = check_component_lemma(L, 17, 78, FaultCampaign(
        mode="sampled", m=17, samples=0, seed=1), jobs=2)
    assert report.counts["visited"] == 0
