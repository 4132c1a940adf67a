"""Graph core: construction, components, exact flow and connectivity."""

import pytest
from hypothesis import given, settings, strategies as st

from hlmenger import (
    NAMED_FAMILIES,
    BudgetExceeded,
    build_graph,
    components,
    edge_connectivity,
    gen_family,
    largest_component_size,
    max_edge_disjoint_paths,
    remove_edges,
    vertex_connectivity,
)
from hlmenger.flow import UnitFlowEngine
from hlmenger.rng import SplitMix64

from util import (
    all_pairs_min_cut,
    brute_force_min_cut,
    count_search,
    lgraph,
    naive_vertex_connectivity,
    random_graph,
)


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        assert g.n_vertices == 2
        assert g.edges == ((0, 1),)

    def test_cycle_degrees(self):
        g = c4()
        assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]

    def test_q3_counts(self):
        g = gen_family("hypercube", 3).graph
        assert g.n_vertices == 8
        assert len(g.edges) == 12
        assert all(g.degree(v) == 3 for v in range(8))

    def test_canonicalizes_edges(self):
        g = build_graph(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            build_graph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            build_graph(3, [(1, 0), (0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\(0, 3\)"):
            build_graph(3, [(0, 3)])


class TestDegrees:
    def test_k2(self):
        assert build_graph(2, [(0, 1)]).degree(0) == 1

    def test_line_graph_q3_regular(self):
        g = lgraph("hypercube", 3).graph
        assert all(g.degree(v) == 4 for v in range(g.n_vertices))

    def test_min_degree_after_removal(self):
        g = remove_edges(c4(), [(0, 1)])
        assert g.min_degree() == 1

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            c4().degree(9)


class TestRemoveEdges:
    def test_c4_minus_edge_is_path(self):
        g = remove_edges(c4(), [(3, 0)])
        assert len(g.edges) == 3
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]
        assert largest_component_size(g) == 4

    def test_empty_removal_is_identity(self):
        g = lgraph("hypercube", 3).graph
        assert remove_edges(g, []) == g

    def test_k2_minus_edge(self):
        g = remove_edges(build_graph(2, [(0, 1)]), [(0, 1)])
        assert len(g.edges) == 0
        assert [len(c) for c in components(g)] == [1, 1]

    def test_foreign_edge_rejected(self):
        with pytest.raises(ValueError):
            remove_edges(c4(), [(0, 2)])

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graph_matches_a_rebuild(self, seed):
        g = random_graph(seed)
        if seed % 2:
            g = build_graph(g.n_vertices, g.edges,
                            {v: format(v, "b") for v in range(g.n_vertices)})
        rng = SplitMix64(seed)
        k = rng.randbelow(len(g.edges) + 1)
        picked = [g.edges[i] for i in rng.sample_indices(len(g.edges), k)]
        for faults in ([], list(g.edges), [(v, u) for u, v in picked]):
            _assert_matches_rebuild(g, faults)

    def test_line_graph_matches_a_rebuild(self):
        g = lgraph("crossed", 4).graph
        rng = SplitMix64(4)
        faults = [g.edges[i] for i in rng.sample_indices(len(g.edges), 23)]
        _assert_matches_rebuild(g, faults)
        foreign = next((0, v) for v in range(1, g.n_vertices)
                       if not g.has_edge(0, v))
        with pytest.raises(ValueError, match="not in graph"):
            remove_edges(g, faults + [foreign])


def _assert_matches_rebuild(g, faults):
    """remove_edges(g, faults) equals build_graph on the kept edges,
    adjacency included, which Graph.__eq__ does not compare."""
    drop = {(min(e), max(e)) for e in faults}
    kept = [e for e in g.edges if e not in drop]
    got = remove_edges(g, faults)
    want = build_graph(g.n_vertices, kept, g.labels)
    assert got.edges == want.edges
    assert got.labels == want.labels
    assert all(got.neighbors(v) == want.neighbors(v)
               for v in range(g.n_vertices))


class TestComponents:
    def test_connected_line_graph(self):
        g = lgraph("hypercube", 3).graph
        assert [len(c) for c in components(g)] == [12]

    def test_two_k2(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert [len(c) for c in components(g)] == [2, 2]

    def test_isolated_vertex_is_singleton(self):
        g = build_graph(3, [(1, 2)])
        assert components(g)[0] == [0]


class TestMaxEdgeDisjointPaths:
    def test_k2(self):
        r = max_edge_disjoint_paths(build_graph(2, [(0, 1)]), 0, 1)
        assert r.value == 1
        assert r.cut == ((0, 1),)

    def test_c4_opposite_corners(self):
        r = max_edge_disjoint_paths(c4(), 0, 2)
        assert r.value == 2
        assert len(r.cut) == 2

    def test_q3_adjacent_pair(self):
        g = gen_family("hypercube", 3).graph
        u, v = g.edges[0]
        assert max_edge_disjoint_paths(g, u, v).value == 3

    def test_cut_certificate_disconnects(self):
        g = gen_family("crossed", 3).graph
        r = max_edge_disjoint_paths(g, 0, 5)
        stripped = remove_edges(g, r.cut)
        comp = next(c for c in components(stripped) if 0 in c)
        assert 5 not in comp
        assert len(r.cut) == r.value

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            max_edge_disjoint_paths(c4(), 1, 1)

    def test_applies_to_adjacent_pairs(self):
        # the edge form of Menger needs no non-adjacency hypothesis
        g = c4()
        assert max_edge_disjoint_paths(g, 0, 1).value == 2
        assert brute_force_min_cut(g, 0, 1, 3) == 2


class TestBruteForceMinCut:
    def test_k2(self):
        assert brute_force_min_cut(build_graph(2, [(0, 1)]), 0, 1, 2) == 1

    def test_c4_opposite(self):
        assert brute_force_min_cut(c4(), 0, 2, 3) == 2

    def test_q3_adjacent(self):
        g = gen_family("hypercube", 3).graph
        u, v = g.edges[0]
        assert brute_force_min_cut(g, u, v, 4) == 3

    def test_budget_guard(self):
        g = lgraph("hypercube", 4).graph
        with pytest.raises(BudgetExceeded):
            brute_force_min_cut(g, 0, 1, 7, budget=1000)

    def test_disconnected_pair_is_zero(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert brute_force_min_cut(g, 0, 2, 1) == 0


class TestGlobalConnectivity:
    def test_hypercubes(self):
        for n in range(1, 6):
            g = gen_family("hypercube", n).graph
            assert edge_connectivity(g) == n
            assert vertex_connectivity(g) == n

    def test_line_graph_q3(self):
        g = lgraph("hypercube", 3).graph
        assert edge_connectivity(g) == 4
        assert vertex_connectivity(g) == 4

    def test_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert edge_connectivity(g) == 1
        assert vertex_connectivity(g) == 1

    def test_disconnected_is_zero(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert edge_connectivity(g) == 0
        assert vertex_connectivity(g) == 0

    def test_complete_graph(self):
        g = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert vertex_connectivity(g) == 4
        assert edge_connectivity(g) == 4


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

graph_seeds = st.integers(min_value=0, max_value=2**63)


@settings(max_examples=60, deadline=None)
@given(graph_seeds)
def test_menger_oracle_equivalence(seed):
    g = random_graph(seed, max_vertices=7, max_edges=16)
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            flow = max_edge_disjoint_paths(g, u, v).value
            limit = min(g.degree(u), g.degree(v)) + 1
            assert flow == brute_force_min_cut(g, u, v, limit)


@settings(max_examples=100, deadline=None)
@given(graph_seeds)
def test_connectivity_chain(seed):
    g = random_graph(seed)
    kappa = vertex_connectivity(g)
    lam = edge_connectivity(g)
    assert kappa <= lam <= g.min_degree() or g.n_vertices <= 1


@settings(max_examples=60, deadline=None)
@given(graph_seeds)
def test_flow_bounded_by_degrees_and_symmetric(seed):
    g = random_graph(seed)
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            forward = max_edge_disjoint_paths(g, u, v).value
            assert forward <= min(g.degree(u), g.degree(v))
            assert forward == max_edge_disjoint_paths(g, v, u).value


@settings(max_examples=100, deadline=None)
@given(graph_seeds)
def test_components_partition(seed):
    g = random_graph(seed)
    comps = components(g)
    assert sum(len(c) for c in comps) == g.n_vertices
    assert sorted(v for c in comps for v in c) == list(range(g.n_vertices))
    assert largest_component_size(remove_edges(g, [])) == largest_component_size(g)


@settings(max_examples=60, deadline=None)
@given(graph_seeds)
def test_gusfield_tree_matches_direct_flow(seed):
    g = random_graph(seed)
    engine = UnitFlowEngine(g.n_vertices, g.edges)
    cuts = all_pairs_min_cut(engine)
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            assert cuts[u][v] == max_edge_disjoint_paths(g, u, v).value


def count_per_target(engine) -> list[int]:
    """Replace engine.min_cut with a wrapper that records each target it
    is called for: the targets min_cuts did not confirm at once."""
    direct = []
    engine.min_cut = lambda a, b: direct.append(b) or \
        UnitFlowEngine.min_cut(engine, a, b)
    return direct


def test_min_cuts_matches_per_target_min_cut():
    """min_cuts(s, targets) against one min_cut per target, on seeded
    random graphs with random faults, sources and target orders. Both the
    shared result and the per-target fallback must occur."""
    shared = fallback = 0
    for seed in range(300):
        g = random_graph(seed, max_vertices=10, max_edges=24)
        rng = SplitMix64(seed)
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        m = len(g.edges)
        engine.set_fault_indices(rng.sample_indices(m, rng.randbelow(m // 3 + 1)))
        s = rng.randbelow(g.n_vertices)
        targets = [v for v in range(g.n_vertices) if v != s]
        rng.shuffle(targets)
        targets = targets[:1 + rng.randbelow(len(targets))]
        expected = [engine.min_cut(s, t) for t in targets]
        direct = count_per_target(engine)
        assert engine.min_cuts(s, targets) == expected, seed
        fallback += len(direct)
        shared += len(targets) - 1 - len(direct)
    assert shared and fallback, (shared, fallback)


def test_min_cuts_from_every_source_under_heavy_faults():
    """min_cuts(s, every other vertex) against one min_cut per target,
    from every source of seeded random graphs with up to half their edges
    faulted. Many vertices then sit next to a dominating vertex only over
    a faulted edge, which must not count as dominating them."""
    for seed in range(200):
        g = random_graph(seed, max_vertices=10, max_edges=24)
        rng = SplitMix64(seed)
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        m = len(g.edges)
        engine.set_fault_indices(rng.sample_indices(m, rng.randbelow(m // 2 + 1)))
        for s in range(g.n_vertices):
            targets = [v for v in range(g.n_vertices) if v != s]
            rng.shuffle(targets)
            expected = [engine.min_cut(s, t) for t in targets]
            assert engine.min_cuts(s, targets) == expected, (seed, s)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind, seed", [
    *((kind, None) for kind in NAMED_FAMILIES),
    *(("random", s) for s in (1, 2, 3))])
def test_min_cuts_matches_per_target_min_cut_on_line_graphs(kind, seed, n):
    """min_cuts(s, targets) against one min_cut per target on L(HL_3) and
    L(HL_4) with random faults and sources. Over the fault sets, both
    the targets confirmed by the dominating set's flows and the
    per-target fallback must occur."""
    g = lgraph(kind, n, seed).graph
    m = len(g.edges)
    shared = fallback = 0
    for fault_seed in range(3):
        rng = SplitMix64(1000 * n + fault_seed)
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        engine.set_fault_indices(rng.sample_indices(m, rng.randbelow(m // 4 + 1)))
        s = rng.randbelow(g.n_vertices)
        targets = [v for v in range(g.n_vertices) if v != s]
        rng.shuffle(targets)
        expected = [engine.min_cut(s, t) for t in targets]
        direct = count_per_target(engine)
        assert engine.min_cuts(s, targets) == expected, fault_seed
        fallback += len(direct)
        shared += len(targets) - 1 - len(direct)
    assert shared and fallback, (shared, fallback)


def test_warm_starts_cap_the_searched_units(monkeypatch):
    """lambda runs one flow, capped at 8, from vertex 0 to each other
    vertex of a dominating set of L(MQ_5): 15 flows and 120 searched
    units (320 in 79 flows when it confirmed every vertex). kappa's fans
    start from short paths read off the adjacency lists, so their
    searches find at most the units counted with those starts (396
    without them). A change that drops a start or adds a flow fails
    here; one that saves more passes."""
    g = lgraph("mobius1", 5).graph
    units = count_search(monkeypatch)
    assert edge_connectivity(g) == 8
    assert units["searched"] <= 120, units
    units.clear()
    assert vertex_connectivity(g) == 8
    assert units["searched"] <= 227, units


@settings(max_examples=40, deadline=None)
@given(graph_seeds)
def test_vertex_connectivity_matches_subset_enumeration(seed):
    g = random_graph(seed, max_vertices=7, max_edges=12)
    assert vertex_connectivity(g) == naive_vertex_connectivity(g)


@settings(max_examples=40, deadline=None)
@given(graph_seeds)
def test_edge_connectivity_is_min_over_all_pairs(seed):
    g = random_graph(seed)
    if g.n_vertices < 2 or largest_component_size(g) < g.n_vertices:
        assert edge_connectivity(g) == 0
        return
    best = min(
        max_edge_disjoint_paths(g, u, v).value
        for u in range(g.n_vertices) for v in range(u + 1, g.n_vertices))
    assert edge_connectivity(g) == best
