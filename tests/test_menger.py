"""SMEC verification: predicate, campaigns and tightness."""

import pytest
from hypothesis import given, settings, strategies as st

from hlmenger import (
    NAMED_FAMILIES,
    BudgetExceeded,
    FaultCampaign,
    build_graph,
    check_component_lemma,
    check_tightness,
    is_smec,
    largest_component_size,
    line_graph,
    max_edge_disjoint_paths,
    remove_edges,
    run_campaign,
    tightness_conditional,
    tightness_unconditional,
)
from hlmenger import _campaign_exec, menger, smallsides
from hlmenger._campaign_exec import deficient_vertices, hub_deficits, \
    smec_violation, smec_witness
from hlmenger.flow import UnitFlowEngine
from hlmenger.menger import BOUNDS, SmecWitness, \
    adversarial_fault_indices, require_dimension
from hlmenger.linegraph import line_graph_of_hl
from hlmenger.rng import SplitMix64

from util import all_pairs_min_cut, cut_disconnects, lgraph, \
    naive_is_smec, network, random_graph, reference_suite, \
    reference_tightness_faults


class TestBounds:
    # (faults, floor) as the paper states them, at n = 4, 5, 7
    PAPER = {
        "ft-smec": {4: (4, None), 5: (6, None), 7: (10, None)},
        "cond-ft-smec": {4: (6, None), 5: (10, None), 7: (18, None)},
        "lemma32": {4: (9, 31), 5: (13, 79), 7: (21, 447)},
        "lemma41": {4: (11, 30), 5: (17, 78), 7: (29, 446)},
        "appendixA": {4: (11, 30)},
        "tight-uncond": {4: (5, None), 5: (7, None), 7: (11, None)},
        "tight-cond": {4: (7, None), 5: (11, None), 7: (19, None)},
    }
    MIN_N = {"ft-smec": 2, "cond-ft-smec": 3, "lemma32": 3, "lemma41": 4,
             "appendixA": 4, "tight-uncond": 3, "tight-cond": 4}

    def test_values_match_the_paper(self):
        assert set(BOUNDS) == set(self.PAPER)
        for check, rows in self.PAPER.items():
            for n, (faults, floor) in rows.items():
                bound = require_dimension(check, n)
                assert bound.faults(n) == faults
                assert (bound.floor(n) if bound.floor else None) == floor

    def test_minimum_dimensions(self):
        for check, lowest in self.MIN_N.items():
            assert require_dimension(check, lowest) is BOUNDS[check]
            with pytest.raises(ValueError, match=f">= {lowest}|n=4"):
                require_dimension(check, lowest - 1)

    def test_appendix_a_is_only_n4(self):
        with pytest.raises(ValueError, match="n=4"):
            require_dimension("appendixA", 5)

    def test_needs_a_base_dimension(self):
        with pytest.raises(ValueError, match="hypercube-like"):
            require_dimension("lemma32", None)


class TestIsSmec:
    def test_line_graph_q3_holds(self):
        assert is_smec(lgraph("hypercube", 3).graph).holds

    def test_k4_holds(self):
        k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert is_smec(k4).holds

    def test_figure3_fault_set_fails(self):
        L = lgraph("hypercube", 3)
        tw = tightness_unconditional(L)
        faulty = remove_edges(L.graph, tw.fault_set)
        verdict = is_smec(faulty)
        assert not verdict.holds
        w = verdict.witness
        assert w.path_count < w.required == 4
        assert len(w.cut) == w.path_count
        assert cut_disconnects(faulty, w.u, w.v, w.cut)

    def test_disconnected_with_two_live_sides_fails(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        verdict = is_smec(g)
        assert not verdict.holds
        assert verdict.witness.path_count == 0

    def test_isolated_vertices_are_vacuous(self):
        g = build_graph(3, [(1, 2)])
        assert is_smec(g).holds

    def test_witness_with_both_endpoints_deficient(self):
        # K5, K5 and K6 on ids 0-4, 5-9 and 10-15, bridged by 4-10 and
        # 9-11: the hub is 10, every vertex of both K5s is deficient, and
        # the first violating pair (0, 5) is decided by a direct flow
        from itertools import combinations
        g = build_graph(16, [*combinations(range(5), 2),
                             *combinations(range(5, 10), 2),
                             *combinations(range(10, 16), 2),
                             (4, 10), (9, 11)])
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        deficient = hub_deficits(engine)
        assert {0, 5} <= deficient.keys()
        assert naive_is_smec(g) == (False, (0, 5))
        assert is_smec(g).witness == SmecWitness(0, 5, 1, 4, ((4, 10),))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**63))
    def test_matches_naive_pairwise_check(self, seed):
        # non-regular inputs: the hub is one of few maximum-degree vertices
        g = random_graph(seed)
        expected_holds, first_pair = naive_is_smec(g)
        verdict = is_smec(g)
        assert verdict.holds == expected_holds
        if not verdict.holds:
            w = verdict.witness
            assert (w.u, w.v) == first_pair
            assert w.path_count == max_edge_disjoint_paths(g, w.u, w.v).value
            assert w.required == min(g.degree(w.u), g.degree(w.v))
            assert cut_disconnects(g, w.u, w.v, w.cut)


class TestRunCampaign:
    def test_exhaustive_m2_on_line_q3(self):
        report = run_campaign(lgraph("hypercube", 3),
                              FaultCampaign(mode="exhaustive", m=2))
        assert report.counts == {
            "visited": 301, "skipped_conditional": 0, "failures": 0}
        assert report.witness is None

    def test_m0_equals_is_smec(self):
        report = run_campaign(lgraph("crossed", 3),
                              FaultCampaign(mode="exhaustive", m=0))
        assert report.counts["visited"] == 1
        assert report.passed == is_smec(lgraph("crossed", 3).graph).holds

    def test_adversarial_m3_finds_the_sharp_counterexample(self):
        # one past the 2n-4 bound: the near-isolating splits must fail
        L = lgraph("hypercube", 3)
        report = run_campaign(
            L, FaultCampaign(mode="sampled", m=3, samples=0, seed=0,
                             adversarial=True))
        assert report.counts["failures"] > 0
        w = report.witness
        faulty = remove_edges(L.graph, [tuple(e) for e in w["fault_edges"]])
        assert w["path_count"] < w["required"]
        assert cut_disconnects(faulty, *w["pair"], w["cut"])

    def test_conditional_skips_inadmissible_sets(self):
        # L(Q_2) = C_4 is 2-regular: every non-empty fault set drops some
        # endpoint below degree 2
        L = lgraph("hypercube", 2)
        report = run_campaign(
            L, FaultCampaign(mode="exhaustive", m=2, conditional=True))
        assert report.counts["visited"] == 1
        assert report.counts["skipped_conditional"] == 4 + 6
        for k in range(1, 3):
            from itertools import combinations
            for combo in combinations(L.graph.edges, k):
                assert remove_edges(L.graph, combo).min_degree() <= 1

    def test_conditional_visited_sets_are_admissible(self):
        L = lgraph("crossed", 3)
        report = run_campaign(
            L, FaultCampaign(mode="exhaustive", m=2, conditional=True))
        total = sum(
            1 for k in range(3)
            for _ in __import__("itertools").combinations(range(24), k))
        assert report.counts["visited"] + report.counts["skipped_conditional"] == total
        assert report.counts["failures"] == 0

    def test_conditional_bound_needs_dimension_4(self):
        # three conditional faults can break SMEC at n=3; the conditional
        # fault-tolerance bound only kicks in from dimension 4
        L = lgraph("crossed", 3)
        report = run_campaign(
            L, FaultCampaign(mode="exhaustive", m=3, conditional=True))
        assert report.counts["failures"] > 0
        w = report.witness
        faulty = remove_edges(L.graph, [tuple(e) for e in w["fault_edges"]])
        assert faulty.min_degree() >= 2
        assert not is_smec(faulty).holds
        assert cut_disconnects(faulty, *w["pair"], w["cut"])

    def test_sampled_reports_are_seed_deterministic(self):
        L = lgraph("crossed", 4)
        c = FaultCampaign(mode="sampled", m=6, conditional=True,
                          samples=150, seed=99)
        a = run_campaign(L, c)
        b = run_campaign(L, c)
        assert a.canonical_json() == b.canonical_json()
        different = run_campaign(
            L, FaultCampaign(mode="sampled", m=6, conditional=True,
                             samples=150, seed=100))
        assert different.parameters["seed"] != a.parameters["seed"]

    def test_empty_and_floor_campaigns_run_no_unit_flow(self, monkeypatch):
        # a campaign over zero fault sets and a component-floor campaign
        # never run a flow of the UnitFlowEngine
        def no_flow(*args):
            raise AssertionError("unit flow run")

        monkeypatch.setattr(UnitFlowEngine, "_run", no_flow)
        L = lgraph("crossed", 4)
        report = run_campaign(L, FaultCampaign(mode="sampled", m=6,
                                               samples=0, seed=1))
        assert report.counts["visited"] == 0
        for conditional in (False, True):
            report = check_component_lemma(
                L, 2, 31, FaultCampaign(mode="exhaustive", m=2,
                                        conditional=conditional))
            assert report.passed

    @pytest.mark.parametrize("kind, n, c", [
        ("ltq", 3, FaultCampaign(mode="exhaustive", m=2)),
        # skips are counted where sets are drawn, failures in the workers
        ("mobius1", 4, FaultCampaign(mode="sampled", m=7, conditional=True,
                                     samples=30, seed=2, adversarial=True)),
    ], ids=["exhaustive", "conditional-sampled"])
    def test_jobs_do_not_change_the_report(self, kind, n, c):
        L = lgraph(kind, n)
        solo = run_campaign(L, c, jobs=1)
        assert _campaign_exec._WORKER_STATE is None
        parallel = run_campaign(L, c, jobs=2)
        assert solo.canonical_json() == parallel.canonical_json()
        if c.conditional:
            assert solo.counts["skipped_conditional"] == 228
            assert solo.counts["failures"] == 384

    @pytest.mark.parametrize("cpus,pools", [(2, [2]), (1, []), (None, [])])
    def test_workers_are_bounded_by_the_cpu_count(self, monkeypatch, cpus,
                                                  pools):
        """jobs=100000 starts at most os.cpu_count() workers, and none when
        that is 1 (or unknown). The fake pool runs its chunks in process,
        so no worker process starts."""
        class FakePool:
            def __init__(self, size, initializer, initargs):
                sizes.append(size)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, chunks):
                return map(fn, chunks)

        sizes = []
        monkeypatch.setattr(_campaign_exec.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(_campaign_exec, "Pool", FakePool)
        monkeypatch.setattr(_campaign_exec, "_WORKER_STATE", None)
        L = lgraph("mobius1", 4)
        c = FaultCampaign(mode="sampled", m=7, conditional=True, samples=30,
                          seed=2, adversarial=True)
        many = run_campaign(L, c, jobs=100000)
        assert sizes == pools
        assert many.canonical_json() == run_campaign(L, c).canonical_json()

    @pytest.mark.parametrize("c", [
        FaultCampaign(mode="exhaustive", m=-1),
        FaultCampaign(mode="sampled", m=2, samples=-5),
    ])
    def test_negative_sizes_rejected(self, c):
        with pytest.raises(ValueError, match="must be >= 0"):
            run_campaign(lgraph("hypercube", 3), c)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            run_campaign(lgraph("hypercube", 3),
                         FaultCampaign(mode="exhaustive", m=6, budget=1000))

    def test_m_larger_than_edge_count_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            run_campaign(lgraph("hypercube", 2),
                         FaultCampaign(mode="exhaustive", m=10))

    def test_conditional_impossible_rejected(self):
        path = build_graph(3, [(0, 1), (1, 2)])
        L = line_graph_of_hl(network("hypercube", 2))
        L = type(L)(graph=path, base=path, vertex_of_edge={}, edge_of_vertex=(),
                    f_vertices=None, base_dimension=None)
        with pytest.raises(ValueError, match="min-degree-2"):
            run_campaign(L, FaultCampaign(mode="sampled", m=1, samples=5,
                                          conditional=True, seed=0))


def linear_admitted(g, sets):
    """The admission predicate that rebuilds every degree of g - F: O(V)
    per set. Yields whether each set is admitted."""
    base = [g.degree(v) for v in range(g.n_vertices)]
    for idx in sets:
        deg = base[:]
        for k in idx:
            a, b = g.edges[k]
            deg[a] -= 1
            deg[b] -= 1
        yield min(deg) >= 2


class TestAdmission:
    """menger._admitted reads only the ends of F once the base's minimum
    degree is known; it must admit, in order, and count exactly the sets
    the O(V) predicate does."""

    @staticmethod
    def _assert_same(g, sets):
        counters = {"skipped_conditional": 0}
        kept = [idx for idx, ok in zip(sets, linear_admitted(g, sets)) if ok]
        assert list(menger._admitted(g, sets, counters)) == kept
        assert counters["skipped_conditional"] == len(sets) - len(kept)
        return len(kept)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sets(self, seed):
        """Seeded sets of up to a third of the edges, on L(HL_3..5) and on
        line graphs of random graphs of mixed degrees, some below 2."""
        rng = SplitMix64(seed)
        kind = NAMED_FAMILIES[seed % len(NAMED_FAMILIES)]
        for g in (lgraph(kind, 3 + seed % 3).graph,
                  line_graph(random_graph(seed, max_vertices=8,
                                          max_edges=16)).graph):
            if not g.edges:
                continue
            m = len(g.edges)
            sets = [tuple(rng.sample_indices(m, rng.randbelow(m // 3 + 1)))
                    for _ in range(200)]
            self._assert_same(g, sets)

    @pytest.mark.parametrize("kind", NAMED_FAMILIES)
    @pytest.mark.parametrize("n", [4, 5])
    def test_adversarial_suite_sets(self, kind, n):
        """The suite at 4n - 10 and 4n - 9, whose strips leave vertices
        of degree 1 and whose triangle patterns leave exactly 2."""
        L = lgraph(kind, n)
        for budget in (4 * n - 10, 4 * n - 9):
            suite = adversarial_fault_indices(L, budget)
            assert 0 < self._assert_same(L.graph, suite) < len(suite)

    def test_every_set_is_skipped_below_minimum_degree_two(self):
        """On the line graph of K_4 with a pendant path of two edges, whose
        last edge has degree 1 in L, an exhaustive conditional campaign
        skips every set, the empty set and sets away from that vertex
        included."""
        base = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                               (2, 3), (3, 4), (4, 5)])
        L = line_graph(base)
        g = L.graph
        assert g.min_degree() == 1
        sets = list(menger._exhaustive_stream(len(g.edges), 4))
        assert self._assert_same(g, sets) == 0
        report = run_campaign(L, FaultCampaign(mode="exhaustive", m=4,
                                               conditional=True))
        assert report.counts["visited"] == 0
        assert report.counts["skipped_conditional"] == len(sets)


class TestSmecUnderFaultsDifferential:
    """The hub check's verdict and the witness scan against the naive
    pairwise check, on faulted line graphs."""

    def _naive_first_violation(self, faulty):
        for u in range(faulty.n_vertices):
            du = faulty.degree(u)
            if du == 0:
                continue
            for v in range(u + 1, faulty.n_vertices):
                req = min(du, faulty.degree(v))
                if req and max_edge_disjoint_paths(faulty, u, v).value < req:
                    return u, v
        return None

    def _assert_matches_naive(self, g, engine, idx):
        engine.set_fault_indices(idx)
        faulty = remove_edges(g, [g.edges[i] for i in idx])
        naive = self._naive_first_violation(faulty)
        assert (not hub_deficits(engine)) == (naive is None), idx
        fast = smec_violation(engine)
        if naive is None:
            assert fast is None, idx
        else:
            u, v = naive
            assert fast == (u, v, max_edge_disjoint_paths(faulty, u, v).value,
                            min(faulty.degree(u), faulty.degree(v))), idx

    def test_faulted_random_graphs_match_naive(self):
        # bases that need not be SMEC; 1-3 seeded faults per set
        seen = {"holds": 0, "violates": 0}
        for seed in range(60):
            g = random_graph(seed)
            m = len(g.edges)
            if not m:
                continue
            engine = UnitFlowEngine(g.n_vertices, g.edges)
            rng = SplitMix64(seed)
            for _ in range(8):
                k = 1 + rng.randbelow(min(3, m))
                idx = tuple(rng.sample_indices(m, k))
                engine.set_fault_indices(idx)
                faulty = remove_edges(g, [g.edges[i] for i in idx])
                holds, pair = naive_is_smec(faulty)
                assert (not hub_deficits(engine)) == holds, (seed, idx)
                hit = smec_violation(engine)
                assert (hit[:2] if hit else None) == pair, (seed, idx)
                seen["holds" if holds else "violates"] += 1
        assert all(seen.values()), seen

    @staticmethod
    def _engine(kind, n):
        g = lgraph(kind, n, 1 if kind == "random" else None).graph
        return g, UnitFlowEngine(g.n_vertices, g.edges)

    @pytest.mark.parametrize("kind,n,m,trials", [
        ("hypercube", 3, 5, 120),
        ("crossed", 4, 8, 50),
        ("crossed", 3, 5, 40),
        ("mobius1", 3, 5, 40),
        ("random", 3, 5, 40),
        ("hypercube", 4, 8, 12),
        ("mobius1", 4, 8, 12),
        ("random", 4, 8, 12),
        ("hypercube", 5, 10, 2),
        ("crossed", 5, 10, 2),
        ("mobius1", 5, 10, 2),
        ("random", 5, 10, 2),
    ])
    def test_tree_scan_matches_naive_on_faulted_line_graphs(self, kind, n, m,
                                                            trials):
        g, engine = self._engine(kind, n)
        rng = SplitMix64(1000 + n)
        for _ in range(trials):
            idx = tuple(rng.sample_indices(len(g.edges), rng.randbelow(m + 1)))
            self._assert_matches_naive(g, engine, idx)

    @pytest.mark.parametrize("kind,n", [("hypercube", 3), ("random", 4)])
    def test_isolated_vertices_are_vacuous_under_faults(self, kind, n):
        # unconditional sets: every edge at v (v drops to degree 0), alone
        # and with one more fault at a neighbor, for an ordinary vertex
        # and for vertex 0, the hub of the fault-free line graph
        g, engine = self._engine(kind, n)
        for v in (g.n_vertices - 1, 0):
            star = [i for i, e in enumerate(g.edges) if v in e]
            w = g.neighbors(v)[0]
            extra = next(i for i, e in enumerate(g.edges)
                         if w in e and v not in e)
            for idx in (star, sorted(star + [extra])):
                self._assert_matches_naive(g, engine, tuple(idx))

    def test_conditional_classification_matches_recomputation(self):
        from itertools import combinations
        L = lgraph("crossed", 3)
        g = L.graph
        report = run_campaign(
            L, FaultCampaign(mode="exhaustive", m=3, conditional=True))
        admissible = sum(
            1 for k in range(4)
            for combo in combinations(g.edges, k)
            if remove_edges(g, combo).min_degree() >= 2)
        assert report.counts["visited"] == admissible
        total = sum(1 for k in range(4) for _ in combinations(range(24), k))
        assert report.counts["skipped_conditional"] == total - admissible


class TestWitnessScanAgainstTree:
    """The deficient-set witness scan against the Gusfield-tree row scan it
    replaced, on faulted L(HL_n): same (u, v, paths, required) per set."""

    @staticmethod
    def _tree_first_violation(engine):
        deg = engine.degrees
        cuts = all_pairs_min_cut(engine)
        for u in range(engine.n):
            for v in range(u + 1, engine.n):
                req = min(deg[u], deg[v])
                if req and cuts[u][v] < req:
                    return u, v, cuts[u][v], req
        return None

    @staticmethod
    def _fault_sets(L, n):
        """Adversarial sets one fault past the budget and random sets, then
        some of the adversarial sets plus one edge at vertex 0, the hub
        of the fault-free line graph, or plus every edge at one vertex,
        then pairs of far-apart vertices each stripped to one edge: the
        far end of each kept edge is deficient for any hub, so the hub
        sees at least two deficient vertices."""
        g = L.graph
        m = len(g.edges)
        rng = SplitMix64(7000 + n)
        suite = adversarial_fault_indices(L, 2 * n - 3)
        sets = suite[::max(1, len(suite) // 60)]
        sets += [tuple(rng.sample_indices(m, 2 * n - 3 + rng.randbelow(3)))
                 for _ in range(20)]
        incident = [[i for i, e in enumerate(g.edges) if x in e]
                    for x in range(g.n_vertices)]
        for _ in range(20):
            base = suite[rng.randbelow(len(suite))]
            sets.append(tuple(sorted(
                {*base, incident[0][rng.randbelow(len(incident[0]))]})))
        for v in (0, g.n_vertices // 2):
            for _ in range(3):
                base = suite[rng.randbelow(len(suite))]
                sets.append(tuple(sorted({*base, *incident[v]})))
        near = [{x, *g.neighbors(x)} for x in range(g.n_vertices)]
        for _ in range(6):
            v = rng.randbelow(g.n_vertices)
            w = min((x for x in range(1, g.n_vertices) if x not in near[v]),
                    key=lambda x: len(near[x] & near[v]))
            keep = {x: incident[x][rng.randbelow(len(incident[x]))]
                    for x in (v, w)}
            strips = [k for x in (v, w) for k in incident[x] if k != keep[x]]
            sets.append(tuple(sorted(strips)))
        return sets

    @pytest.mark.parametrize("n,seed", [(3, 1), (3, 2), (4, 1), (4, 3),
                                        (5, 1)])
    def test_scan_matches_tree_on_faulted_random_hl(self, n, seed):
        L = lgraph("random", n, seed)
        engine = UnitFlowEngine(L.graph.n_vertices, L.graph.edges)
        seen = {"violating": 0, "several_deficient": 0, "mixed_witness": 0,
                "hub_touched": 0, "isolated": 0}
        flows = []
        engine.max_flow = lambda s, t, cutoff=None, start=(): \
            flows.append((s, t)) or \
            UnitFlowEngine.max_flow(engine, s, t, cutoff, start)
        for idx in self._fault_sets(L, n):
            engine.set_fault_indices(idx)
            flows.clear()
            deficient = hub_deficits(engine)
            hub_flows = len(flows)
            expected = self._tree_first_violation(engine)
            flows.clear()
            assert smec_violation(engine) == expected, idx
            direct = flows[hub_flows:]
            assert bool(deficient) == (expected is not None), idx
            touched = {x for k in idx for x in L.graph.edges[k]}
            if expected is None:
                continue
            seen["violating"] += 1
            seen["several_deficient"] += len(deficient) >= 2
            u, v = expected[:2]
            if (u in deficient) != (v in deficient):
                # the hub flows fix the pair's value: no direct flow
                assert (u, v) not in direct, idx
            seen["mixed_witness"] += u not in deficient and v in deficient
            seen["hub_touched"] += 0 in touched
            seen["isolated"] += 0 in engine.degrees
        assert all(seen.values()), seen

    def test_violating_campaign_builds_no_flow_tree(self):
        L = lgraph("random", 4, 1)
        report = run_campaign(L, FaultCampaign(mode="sampled", m=5,
                                               samples=20, seed=1,
                                               adversarial=True))
        assert report.counts["failures"] > report.counts["visited"] // 2
        assert is_smec(remove_edges(L.graph, L.graph.edges[:5])).witness


class TestHubChoice:
    """The hub lemma whichever hub: for the lowest, the highest and a
    seeded vertex r of maximum degree in G - F, the capped flows into r
    find a deficient vertex exactly when smec_witness fails, and the pair
    scan over the pairs with an endpoint deficient for r, each decided by
    its own flow, gives smec_witness's pair and path count."""

    @staticmethod
    def _hubs(deg, rng):
        top = [x for x, d in enumerate(deg) if d == max(deg)]
        return sorted({top[0], top[-1], top[rng.randbelow(len(top))]})

    @staticmethod
    def _first_violation(engine, r):
        deg = engine.degrees
        short = {u for u in range(engine.n) if u != r and deg[u]
                 and engine.max_flow(u, r, deg[u]) < deg[u]}
        for u in range(engine.n):
            for v in range(u + 1, engine.n):
                req = min(deg[u], deg[v])
                if req and short & {u, v}:
                    paths = engine.max_flow(u, v, req)
                    if paths < req:
                        return short, (u, v, paths, req)
        return short, None

    @pytest.mark.parametrize("n,seed", [(3, 1), (3, 2), (4, 1), (4, 3),
                                        (5, 1)])
    def test_every_hub_gives_the_same_witness(self, n, seed):
        L = lgraph("random", n, seed)
        g = L.graph
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        rng = SplitMix64(8000 + n)
        sets = TestWitnessScanAgainstTree._fault_sets(L, n)
        sets += [tuple(rng.sample_indices(len(g.edges),
                                          2 * n - 4 + rng.randbelow(4)))
                 for _ in range(30)]
        seen = {"violating": 0, "several_hubs": 0, "hubs_disagree": 0}
        for idx in sets:
            engine.set_fault_indices(idx)
            w = smec_witness(engine)
            expected = w and (w.u, w.v, w.path_count, w.required)
            hubs = self._hubs(engine.degrees, rng)
            shorts = set()
            for r in hubs:
                short, hit = self._first_violation(engine, r)
                assert bool(short) == (w is not None), (idx, r)
                assert hit == expected, (idx, r)
                shorts.add(frozenset(short))
            seen["violating"] += w is not None
            seen["several_hubs"] += len(hubs) > 1
            seen["hubs_disagree"] += len(shorts) > 1
        assert all(seen.values()), seen


class TestColdHubCheck:
    """deficient_vertices, the one hub check: r is the lowest vertex of
    maximum degree in G - F, one cold flow capped at deg u runs from each
    u != r of positive degree in id order, and the deficits are exactly
    the u with lambda(u, r) < deg u, each with that value, as networkx
    computes it on G - F; at n <= 4 the verdict also equals the naive
    pairwise check's."""

    @staticmethod
    def _fault_sets(L, n):
        """A spread of the adversarial suite one fault past ft-smec's
        budget, seeded random sets of 2n-4 to 4n-10 faults, and the
        suite's sets with every edge at vertex 0 added, which move the
        hub off vertex 0."""
        m = len(L.graph.edges)
        suite = adversarial_fault_indices(L, 2 * n - 3)
        rng = SplitMix64(9000 + n)
        top = max(4 * n - 10, 2 * n - 4)
        star = [k for k, e in enumerate(L.graph.edges) if 0 in e]
        return suite[::max(1, len(suite) // 30)] + [
            tuple(rng.sample_indices(m, rng.randbelow(top + 1 - (2 * n - 4))
                                     + 2 * n - 4))
            for _ in range(30)] + [tuple(sorted({*suite[k], *star}))
                                   for k in range(0, len(suite), 97)]

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind,seed", [("hypercube", None),
                                           ("crossed", None), ("random", 1)])
    def test_flows_into_the_hub_give_the_deficits(self, kind, seed, n):
        import networkx as nx

        L = lgraph(kind, n, seed)
        g = L.graph
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        flows = []
        engine.max_flow = lambda s, t, cutoff=None, start=(): \
            flows.append((s, t, cutoff, start)) or \
            UnitFlowEngine.max_flow(engine, s, t, cutoff, start)
        seen = {"violating": 0, "holds": 0, "hub_moved": 0}
        step = {3: 1, 4: 3, 5: 12}[n]   # networkx: 0.2 s per set at n=5
        for i, idx in enumerate(self._fault_sets(L, n)):
            engine.set_fault_indices(idx)
            flows.clear()
            deficits = hub_deficits(engine)
            faulty = remove_edges(g, [g.edges[k] for k in idx])
            deg = [faulty.degree(x) for x in range(g.n_vertices)]
            r = deg.index(max(deg))
            live = [u for u in range(g.n_vertices) if u != r and deg[u]]
            assert flows == [(u, r, deg[u], ()) for u in live], idx
            seen["violating" if deficits else "holds"] += 1
            seen["hub_moved"] += r != 0
            if i % step:
                continue
            h = nx.Graph(faulty.edges)
            h.add_nodes_from(range(g.n_vertices))
            lam = {u: nx.edge_connectivity(h, u, r) for u in live}
            assert deficits == {u: x for u, x in lam.items()
                                if x < deg[u]}, idx
            if n <= 4:
                assert naive_is_smec(faulty)[0] == (not deficits), idx
        assert all(seen.values()), seen


class TestVerdictOnly:
    """A chunk decides each set after its first failure by the verdict
    alone. With a small-side layout, smallsides.fails decides it with no
    flow and no hub check. Without one, the hub check stops at its first
    deficient vertex. No pair scan or min cut runs either way. Checked
    per set against hub_deficits, and per campaign against smec_witness
    on every set."""

    @pytest.mark.parametrize("n,seed", [(3, 1), (4, 1), (4, 3), (5, 1)])
    def test_verdict_stops_at_the_first_deficient_vertex(self, n, seed,
                                                         monkeypatch):
        """Each set is checked as a campaign with m = |F| would check it:
        with smallsides.layout(L, |F|), which at n = 3 always refuses
        (kappa(H) = 3 <= mu once |F| >= 3) and at n >= 4 refuses the
        larger sets. A set with a layout runs no flow and no hub check
        and is not installed; a set without one runs a prefix of the hub
        check's flows, all of them when it passes."""
        L = lgraph("random", n, seed)
        g = L.graph
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        flows = []
        engine.max_flow = lambda s, t, cutoff=None, start=(): \
            flows.append((s, t)) or \
            UnitFlowEngine.max_flow(engine, s, t, cutoff, start)
        installs = []
        engine.set_fault_indices = lambda idx: installs.append(idx) or \
            UnitFlowEngine.set_fault_indices(engine, idx)

        def refused(*args):
            raise AssertionError("pair scan or min cut in a verdict check")

        def no_hub_check(*args):
            raise AssertionError("hub check run with a layout")

        seen = {"decided_fail": 0, "decided_pass": 0, "hub_check": 0,
                "hub_pass": 0}
        for idx in TestWitnessScanAgainstTree._fault_sets(L, n):
            layout = smallsides.layout(L, len(idx))
            engine.set_fault_indices(idx)
            flows.clear()
            deficits = hub_deficits(engine)
            every = flows[:]
            flows.clear()
            installs.clear()
            with monkeypatch.context() as m:
                m.setattr(_campaign_exec, "smec_violation", refused)
                m.setattr(engine, "min_cut", refused)
                if layout is not None:
                    m.setattr(_campaign_exec, "deficient_vertices",
                              no_hub_check)
                out = _campaign_exec._evaluate_one(
                    engine, layout, g.edges, idx, "smec", 0, False)
            assert out == ({} if deficits else None), idx
            if layout is not None:
                # the small sides settle the set from F alone: no flow,
                # no hub check, and F is not even installed in the engine
                seen["decided_fail" if deficits else "decided_pass"] += 1
                assert not flows and not installs, idx
                continue
            if not deficits:
                seen["hub_pass"] += 1
                assert flows == every, idx
                continue
            seen["hub_check"] += 1
            u = min(deficits)
            # the verdict's flows are the hub check's, up to u's
            assert flows == every[:len(flows)] and flows[-1][0] == u, idx
            assert next(deficient_vertices(engine)) == (u, deficits[u]), idx
        decided = seen["decided_fail"] + seen["decided_pass"]
        assert seen["hub_check"] and seen["hub_pass"], seen
        assert all(seen.values()) if n >= 4 else not decided, seen

    @pytest.mark.parametrize("kind,seed,m,conditional", [
        ("random", 1, 5, False), ("random", 2, 5, False),
        ("random", 3, 5, False), ("crossed", None, 5, False),
        # one past 4n - 10 with min degree 2: kappa(H) = mu, so the hub
        # check decides
        ("crossed", None, 7, True)])
    def test_campaign_matches_a_witness_for_every_set(self, kind, seed, m,
                                                      conditional,
                                                      monkeypatch):
        """The campaign's counts and witness, at --jobs 1 and 2 with
        chunks of 7 sets, against smec_witness on every set. Every
        failing set's witness as the campaign computes it, from the
        small sides where there is a layout, must equal smec_witness's.
        A campaign with a layout never runs the hub check."""
        L = lgraph(kind, 4, seed)
        g = L.graph
        c = FaultCampaign(mode="sampled", m=m, conditional=conditional,
                          samples=60, seed=seed or 1, adversarial=True)
        layout = smallsides.layout(L, m)
        streams = []
        evaluate = _campaign_exec.evaluate_stream

        def recorded(g, stream, *args):
            streams.append(list(stream))
            return evaluate(g, iter(streams[-1]), *args)

        def no_hub_check(*args):
            raise AssertionError("hub check run with a layout")

        cuts = []
        min_cut = UnitFlowEngine.min_cut
        monkeypatch.setattr(_campaign_exec, "evaluate_stream", recorded)
        monkeypatch.setattr(_campaign_exec, "_CHUNK_SIZE", 7)
        monkeypatch.setattr(UnitFlowEngine, "min_cut", lambda self, s, t:
                            cuts.append((s, t)) or min_cut(self, s, t))
        with monkeypatch.context() as mp:
            if layout is not None:
                mp.setattr(_campaign_exec, "deficient_vertices",
                           no_hub_check)
            solo = run_campaign(L, c, jobs=1)
            solo_cuts = len(cuts)
            parallel = run_campaign(L, c, jobs=2)
        sets = streams[0]
        assert streams[1] == sets
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        failed, first = [], None
        for idx in sets:
            engine.set_fault_indices(idx)
            w = smec_witness(engine)
            failed.append(w is not None)
            expected = w and {"fault_edges": [list(g.edges[k]) for k in idx],
                              **w.to_dict()}
            assert _campaign_exec._evaluate_one(
                UnitFlowEngine(g.n_vertices, g.edges), layout, g.edges, idx,
                "smec", 0, True) == expected, idx
            if w is not None and first is None:
                first = expected
        chunks = [failed[i:i + 7] for i in range(0, len(failed), 7)]
        assert sum(any(ch) for ch in chunks) >= 3
        assert any(sum(ch) >= 2 for ch in chunks)
        skipped = solo.counts["skipped_conditional"]
        assert bool(skipped) == conditional
        assert (layout is None) == conditional
        for report in (solo, parallel):
            assert report.counts == {"visited": len(sets),
                                     "skipped_conditional": skipped,
                                     "failures": sum(failed)}
            assert report.witness == first
        assert solo.canonical_json() == parallel.canonical_json()
        assert solo_cuts == sum(any(ch) for ch in chunks)


class TestDegenerateSizes:
    def test_campaign_on_single_vertex_line_graph(self):
        # L(K_2) has one vertex and no edges: nothing to check, holds
        from hlmenger import line_graph
        L = line_graph(build_graph(2, [(0, 1)]))
        report = run_campaign(L, FaultCampaign(mode="exhaustive", m=0))
        assert report.passed and report.counts["visited"] == 1
        assert is_smec(L.graph).holds

    def test_is_smec_on_edgeless_graph(self):
        assert is_smec(build_graph(3, [])).holds


class TestComponentLemma:
    def test_no_faults_single_check(self):
        report = check_component_lemma(
            lgraph("hypercube", 3), 0, 12, FaultCampaign(mode="exhaustive", m=0))
        assert report.counts["visited"] == 1
        assert report.passed

    def test_floor_violation_reported(self):
        # floor 12 forces a failure whenever four faults isolate a vertex
        L = lgraph("hypercube", 3)
        report = check_component_lemma(
            L, 4, 12, FaultCampaign(mode="exhaustive", m=4))
        assert report.counts["failures"] > 0
        w = report.witness
        faulty = remove_edges(L.graph, [tuple(e) for e in w["fault_edges"]])
        assert largest_component_size(faulty) == w["largest_component"] < 12

    def test_lemma32_bound_sampled_at_n4(self):
        # fault budget 4n-7 = 9, floor n*2^(n-1) - 1 = 31
        report = check_component_lemma(
            lgraph("crossed", 4), 9, 31,
            FaultCampaign(mode="sampled", m=9, samples=1500, seed=5,
                          adversarial=True))
        assert report.passed

    def test_lemma41_bound_sampled_at_n5(self):
        # fault budget 6n-13 = 17, floor n*2^(n-1) - 2 = 78
        report = check_component_lemma(
            lgraph("crossed", 5), 17, 78,
            FaultCampaign(mode="sampled", m=17, samples=400, seed=5,
                          adversarial=True))
        assert report.passed

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            check_component_lemma(lgraph("crossed", 3), -2, 11,
                                  FaultCampaign(mode="exhaustive", m=0))

    def test_floor_above_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            check_component_lemma(lgraph("hypercube", 3), 1, 13,
                                  FaultCampaign(mode="exhaustive", m=1))


class TestAdversarialFaultSets:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind, seed", [
        *((kind, None) for kind in NAMED_FAMILIES),
        ("random", 1), ("random", 2), ("random", 3)])
    def test_matches_the_edge_tuple_builder(self, kind, seed, n):
        """The edge-index suite equals the edge-tuple reference, order
        included, at the paper's budgets, and both tightness
        constructions keep their fault tuples."""
        L = lgraph(kind, n, seed)
        for budget in (0, 1, 2 * n - 3, 4 * n - 10, 4 * n - 9, 6 * n - 13):
            assert adversarial_fault_indices(L, budget) == \
                reference_suite(L, budget), budget
        assert tightness_unconditional(L).fault_set == \
            reference_tightness_faults(L, False)
        if n >= BOUNDS["tight-cond"].min_n:
            assert tightness_conditional(L).fault_set == \
                reference_tightness_faults(L, True)

    @pytest.mark.parametrize("seed", range(8))
    def test_triangles_are_listed_only_when_a_pattern_fits(self, seed,
                                                           monkeypatch):
        """A triangle pattern has deg u1 + deg u2 - 5 edges, so no triangle
        is listed below twice the minimum degree less 5; the suite equals
        the reference on both sides of that budget, on L(HL_4), L(HL_5)
        (4n - 10 and 4n - 9) and line graphs of random graphs of mixed
        degrees."""
        listed = []
        triangles = menger._triangles
        monkeypatch.setattr(menger, "_triangles", lambda inc:
                            listed.append(1) or triangles(inc))
        kind = NAMED_FAMILIES[seed % len(NAMED_FAMILIES)]
        for L in (lgraph(kind, 4 + seed % 2),
                  line_graph(random_graph(seed, max_vertices=8,
                                          max_edges=16))):
            g = L.graph
            fits = 2 * g.min_degree() - 5
            for budget in range(max(0, fits - 1),
                                min(fits + 1, len(g.edges)) + 1):
                listed.clear()
                assert adversarial_fault_indices(L, budget) == \
                    reference_suite(L, budget), budget
                assert bool(listed) == (budget >= fits), budget

    def test_budget_zero_is_empty_set_only(self):
        assert adversarial_fault_indices(lgraph("hypercube", 3), 0) == [()]

    def test_contains_near_isolating_splits(self):
        L = lgraph("hypercube", 3)
        g = L.graph
        found = {frozenset(g.edges[i] for i in s)
                 for s in adversarial_fault_indices(L, 3)}
        for u0 in range(g.n_vertices):
            for u in g.neighbors(u0):
                split = frozenset(
                    (min(u0, w), max(u0, w))
                    for w in g.neighbors(u0) if w != u)
                assert split in found

    def test_contains_conditional_tightness_set_at_budget_7(self):
        L = lgraph("crossed", 4)
        tw = tightness_conditional(L)
        found = {frozenset(L.graph.edges[i] for i in s)
                 for s in adversarial_fault_indices(L, 7)}
        assert frozenset(tw.fault_set) in found

    def test_sets_respect_budget_and_host(self):
        L = lgraph("ltq", 3)
        for s in adversarial_fault_indices(L, 4):
            assert len(s) <= 4
            assert all(0 <= i < len(L.graph.edges) for i in s)

    def test_budget_above_edges_rejected(self):
        with pytest.raises(ValueError):
            adversarial_fault_indices(lgraph("hypercube", 2), 5)


class TestTightnessUnconditional:
    @pytest.mark.parametrize("kind", ["hypercube", "crossed", "ltq"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_construction_certifies_violation(self, kind, n):
        L = lgraph(kind, n)
        tw = tightness_unconditional(L)
        assert len(tw.fault_set) == 2 * n - 3
        report = check_tightness(L, conditional=False)
        assert report.counts["failures"] == 1
        w = report.witness
        assert w["path_count"] <= 2 * n - 3 < 2 * n - 2 == w["required"]
        faulty = remove_edges(L.graph, tw.fault_set)
        assert cut_disconnects(faulty, *w["pair"], w["cut"])

    def test_requires_dimension_3(self):
        with pytest.raises(ValueError, match=">= 3"):
            tightness_unconditional(lgraph("hypercube", 2))

    def test_core_is_the_dead_end_vertex(self):
        assert tightness_unconditional(lgraph("crossed", 3)).core == (0,)

    def test_all_witnesses_flag(self):
        L = lgraph("crossed", 3)
        report = check_tightness(L, conditional=False, all_witnesses=True)
        # every vertex outside u0's closed neighborhood certifies the failure
        assert report.counts["visited"] == 12 - 1 - 4
        assert report.counts["failures"] == report.counts["visited"]
        assert len(report.details) == report.counts["failures"]


class TestTightnessConditional:
    @pytest.mark.parametrize("kind", ["hypercube", "crossed", "mobius1"])
    def test_construction_at_n4(self, kind):
        L = lgraph(kind, 4)
        tw = tightness_conditional(L)
        assert len(tw.fault_set) == 4 * 4 - 9
        faulty = remove_edges(L.graph, tw.fault_set)
        assert faulty.min_degree() >= 2
        report = check_tightness(L, conditional=True)
        w = report.witness
        assert w["deg_u1_after"] == 2
        assert w["deg_u2_after"] == 3
        assert w["min_degree_after"] >= 2
        assert w["path_count"] <= 2 * 4 - 3 < 2 * 4 - 2 == w["required"]
        assert cut_disconnects(faulty, *w["pair"], w["cut"])

    def test_requires_dimension_4(self):
        with pytest.raises(ValueError, match=">= 4"):
            tightness_conditional(lgraph("crossed", 3))

    def test_core_is_the_triangle(self):
        L = lgraph("crossed", 4)
        tw = tightness_conditional(L)
        at_base_0 = [i for i, e in enumerate(L.edge_of_vertex) if 0 in e]
        assert tw.core == tuple(sorted(at_base_0)[:3])
        report = check_tightness(L, conditional=True)
        assert report.witness["triangle"] == list(tw.core)

    def test_all_witnesses_flag(self):
        L = lgraph("crossed", 4)
        report = check_tightness(L, conditional=True, all_witnesses=True)
        # line vertices are adjacent iff their base edges meet, so the
        # closed neighbourhood of the triangle is every line vertex whose
        # base edge meets one of the triangle's base edges
        at_base_0 = [i for i, e in enumerate(L.edge_of_vertex) if 0 in e]
        ends = {x for t in sorted(at_base_0)[:3] for x in L.edge_of_vertex[t]}
        far = [i for i, e in enumerate(L.edge_of_vertex) if not ends & set(e)]
        assert far
        assert [d["pair"][1] for d in report.details] == far
        assert report.counts["visited"] == report.counts["failures"] == len(far)


class TestTightnessAllWitnessesAgainstDirectCuts:
    """--all-witnesses details, which share one cut among far vertices,
    against a separate minimum cut per candidate on the faulted graph."""

    @pytest.mark.parametrize("kind,seed", [("hypercube", None),
                                           ("crossed", None),
                                           ("mobius1", None), ("ltq", None),
                                           ("random", 3)])
    @pytest.mark.parametrize("conditional,n", [(False, 3), (False, 4),
                                               (False, 5), (True, 4),
                                               (True, 5)])
    def test_details_equal_per_candidate_min_cut(self, kind, seed,
                                                  conditional, n):
        L = lgraph(kind, n, seed)
        tw = (tightness_conditional(L) if conditional
              else tightness_unconditional(L))
        faulty = remove_edges(L.graph, tw.fault_set)
        report = check_tightness(L, conditional, all_witnesses=True)
        expected = []
        for v in range(faulty.n_vertices):
            if any(v == t or L.graph.has_edge(v, t) for t in tw.core):
                continue
            flow = max_edge_disjoint_paths(faulty, tw.u, v)
            required = min(faulty.degree(tw.u), faulty.degree(v))
            assert flow.value < required
            expected.append({"pair": [tw.u, v], "path_count": flow.value,
                             "required": required,
                             "cut": [list(e) for e in flow.cut]})
        assert expected and report.details == expected
        assert report.counts["failures"] == report.counts["visited"]

    @pytest.mark.parametrize("kind,seed", [
        *((kind, None) for kind in NAMED_FAMILIES), ("random", 3)])
    @pytest.mark.parametrize("conditional", [False, True])
    @pytest.mark.parametrize("n", [4, 5])
    def test_every_far_vertex_is_confirmed_at_once(self, kind, seed,
                                                   conditional, n,
                                                   monkeypatch):
        """The first flow's cut is every far vertex's: the flows to a
        dominating set of the far side confirm them all, so min_cut runs
        for none of them."""
        L = lgraph(kind, n, seed)

        def refused(self, s, t):
            raise AssertionError(f"min_cut({s}, {t}) for a far vertex")

        monkeypatch.setattr(UnitFlowEngine, "min_cut", refused)
        report = check_tightness(L, conditional, all_witnesses=True)
        assert report.counts["failures"] == report.counts["visited"] > 1
