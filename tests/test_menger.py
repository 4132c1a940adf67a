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
    max_edge_disjoint_paths,
    remove_edges,
    run_campaign,
    tightness_conditional,
    tightness_unconditional,
)
from hlmenger import _campaign_exec
from hlmenger._campaign_exec import deficient_vertices, hub_deficits, \
    pocket_fails, smec_violation, smec_witness
from hlmenger.flow import UnitFlowEngine
from hlmenger.menger import BOUNDS, SmecWitness, \
    adversarial_fault_indices, require_dimension
from hlmenger.linegraph import line_graph_of_hl
from hlmenger.rng import SplitMix64

from util import all_pairs_min_cut, cut_disconnects, lgraph, live_paths, \
    naive_is_smec, network, random_graph, reference_suite, \
    reference_tightness_faults, trail_problem


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
        # bases that need not be SMEC, where some vertex may have fewer
        # stored hub paths than its degree; 1-3 seeded faults per set
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
        # and for the first hub
        g, engine = self._engine(kind, n)
        for v in (g.n_vertices - 1, engine.hubs[0]):
            star = [i for i, e in enumerate(g.edges) if v in e]
            w = g.neighbors(v)[0]
            extra = next(i for i, e in enumerate(g.edges)
                         if w in e and v not in e)
            for idx in (star, sorted(star + [extra])):
                self._assert_matches_naive(g, engine, tuple(idx))

    @pytest.mark.parametrize("kind,n", [("crossed", 3), ("mobius1", 4)])
    def test_faults_touching_every_hub_run_cold(self, kind, n, monkeypatch):
        g, engine = self._engine(kind, n)
        hubs = engine.hubs
        assert len(hubs) == 3

        def stored_paths(hub):
            raise AssertionError("a touched hub was used")

        monkeypatch.setattr(engine, "stored_paths", stored_paths)
        incident = [[i for i, e in enumerate(g.edges) if h in e] for h in hubs]
        one_each = sorted({edges[0] for edges in incident})
        # strip the first hub to a single edge: its neighbor there loses
        # a path, a violation found cold
        split = sorted({*incident[0][1:], incident[1][0], incident[2][0]})
        for idx in (one_each, split):
            assert all(any(h in g.edges[i] for i in idx) for h in hubs)
            self._assert_matches_naive(g, engine, tuple(idx))
        assert hub_deficits(engine)

    def test_paths_are_stored_only_for_fault_set_checks(self, monkeypatch):
        # building an engine, a campaign over zero fault sets and a
        # component-floor campaign never store hub paths
        def stored_paths(self, hub):
            raise AssertionError("hub paths stored")

        monkeypatch.setattr(UnitFlowEngine, "stored_paths", stored_paths)
        L = lgraph("crossed", 4)
        report = run_campaign(L, FaultCampaign(mode="sampled", m=6,
                                               samples=0, seed=1))
        assert report.counts["visited"] == 0
        for conditional in (False, True):
            report = check_component_lemma(
                L, 2, 31, FaultCampaign(mode="exhaustive", m=2,
                                        conditional=conditional))
            assert report.passed

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
    def _fault_sets(L, engine, n):
        """Adversarial sets one fault past the budget and random sets, then
        some of the adversarial sets plus one edge at every hub, or plus
        every edge at one vertex, then pairs of far-apart vertices each
        stripped to one edge: the far end of each kept edge is deficient
        for any hub, so every hub sees at least two deficient vertices."""
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
            hubs = [incident[h][rng.randbelow(len(incident[h]))]
                    for h in engine.hubs]
            sets.append(tuple(sorted({*base, *hubs})))
        for v in (0, g.n_vertices // 2, engine.hubs[0]):
            for _ in range(3):
                base = suite[rng.randbelow(len(suite))]
                sets.append(tuple(sorted({*base, *incident[v]})))
        near = [{x, *g.neighbors(x)} for x in range(g.n_vertices)]
        for _ in range(6):
            v = rng.randbelow(g.n_vertices)
            w = min((x for x in range(g.n_vertices)
                     if x not in near[v] and x not in engine.hubs),
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
                "every_hub_touched": 0, "isolated": 0}
        flows = []
        engine.max_flow = lambda s, t, cutoff=None, start=(): \
            flows.append((s, t)) or \
            UnitFlowEngine.max_flow(engine, s, t, cutoff, start)
        for idx in self._fault_sets(L, engine, n):
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
            seen["every_hub_touched"] += touched.issuperset(engine.hubs)
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
    """The hub check's choice of hub: the paths that the edge index finds
    dead against a scan of every stored path, the hub it picks, the short
    vertices that detours leave to flows and the starts those flows get,
    and the same violation and witness cut whichever hub is forced, cold
    flows too."""

    @staticmethod
    def _random_sets(L, n, count):
        m = len(L.graph.edges)
        rng = SplitMix64(8000 + n)
        return [tuple(rng.sample_indices(m, 2 * n - 4 + rng.randbelow(4)))
                for _ in range(count)]

    @staticmethod
    def _two_fault_sets(engine):
        """Per hub, the first two edges of its first stored path of three
        or more edges, which lose that path through both of them and leave
        the hub untouched."""
        sets = []
        for h in engine.hubs:
            path = next(p for mine in engine.stored_paths(h) for p in mine
                        if len(p) >= 3)
            sets.append(tuple(sorted({path[0] >> 1, path[1] >> 1})))
        return sets

    @staticmethod
    def _check(engine, idx, seen):
        engine.set_fault_indices(idx)
        deg, base, hubs = engine.degrees, engine.base_degrees, engine.hubs
        untouched = [h for h in hubs if deg[h] == base[h]]
        short_of, live_of = {}, {}
        for h in hubs:
            short = engine.hub_losses(h)
            paths = engine.stored_paths(h)
            reference = live_paths(engine, h)
            assert short == {u: {i for i, p in enumerate(mine)
                                 if p not in reference[u]}
                             for u, mine in enumerate(paths)
                             if u != h and len(reference[u]) < deg[u]}, \
                (idx, h)
            seen["path_crosses_two_faults"] += any(
                len({a >> 1 for a in paths[u][i]} & set(idx)) >= 2
                for u, gone in short.items() for i in gone)
            short_of[h], live_of[h] = short, reference
        shorts = [len(short_of[h]) for h in untouched]
        flows = []
        engine.max_flow = lambda s, t, cutoff=None, start=(): \
            flows.append((s, t, start)) or \
            UnitFlowEngine.max_flow(engine, s, t, cutoff, start)
        try:
            hub_deficits(engine)
        finally:
            del engine.max_flow
        if shorts:
            # each short vertex of the chosen hub starts from its live
            # stored paths and the dead ones hub_start mends; flows run
            # from that whole start for exactly the vertices it leaves
            # uncovered
            chosen = untouched[shorts.index(min(shorts))]
            live, stored = live_of[chosen], engine.stored_paths(chosen)
            starts = {}
            for u, dead in short_of[chosen].items():
                starts[u] = engine.hub_start(chosen, u, dead)
                assert starts[u][:len(live[u])] == live[u], (idx, u)
                assert len(starts[u]) <= len(stored[u]), (idx, u)
                problem = trail_problem(engine.edges, idx, u, chosen,
                                        starts[u])
                assert problem is None, (idx, u, problem)
            uncovered = [u for u, start in sorted(starts.items())
                         if len(start) < deg[u]]
            assert flows == [(u, chosen, starts[u]) for u in uncovered], idx
            seen["covered"] += len(uncovered) < len(starts)
            seen["partly_mended"] += any(len(starts[u]) > len(live[u])
                                         for u in uncovered)
            seen["not_first_hub"] += chosen != untouched[0]
        else:
            assert all(start == [] for _, _, start in flows), idx
            seen["every_hub_touched"] += 1
        outcomes = set()
        try:
            for forced in (hubs, *([h] for h in untouched), []):
                engine.hubs = forced
                w = smec_witness(engine)
                outcomes.add((smec_violation(engine), w and w.cut))
        finally:
            engine.hubs = hubs
        assert len(outcomes) == 1, (idx, outcomes)
        seen["violating"] += outcomes.pop()[0] is not None

    @pytest.mark.parametrize("n,seed", [(3, 1), (3, 2), (4, 1), (4, 3),
                                        (5, 1)])
    def test_every_hub_gives_the_same_witness(self, n, seed):
        L = lgraph("random", n, seed)
        engine = UnitFlowEngine(L.graph.n_vertices, L.graph.edges)
        seen = {"violating": 0, "not_first_hub": 0, "every_hub_touched": 0,
                "path_crosses_two_faults": 0, "covered": 0,
                "partly_mended": 0}
        sets = TestWitnessScanAgainstTree._fault_sets(L, engine, n)
        sets += self._two_fault_sets(engine)
        for idx in sets + self._random_sets(L, n, 40):
            self._check(engine, idx, seen)
        assert all(seen.values()), seen


class TestDetours:
    """Dead stored paths mended around their fault edges through live
    common neighbours (UnitFlowEngine.hub_start). The hub check builds a
    start for exactly the vertices short of live stored paths; each
    start, the vertex's live stored paths then its mended ones, passes a
    checker that reads the edge list alone; a vertex runs its flow, from
    that whole start, exactly when the start holds fewer than deg u
    trails; and the hub check's deficits equal those of flow-only runs,
    which mend nothing, and the naive pairwise verdict."""

    @staticmethod
    def _fault_sets(L, n):
        """A spread of the adversarial suite one fault past ft-smec's
        budget, then seeded random sets of 2n-4 to 4n-10 faults."""
        m = len(L.graph.edges)
        suite = adversarial_fault_indices(L, 2 * n - 3)
        rng = SplitMix64(9000 + n)
        top = max(4 * n - 10, 2 * n - 4)
        return suite[::max(1, len(suite) // 30)] + [
            tuple(rng.sample_indices(m, rng.randbelow(top + 1 - (2 * n - 4))
                                     + 2 * n - 4))
            for _ in range(30)]

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind,seed", [("hypercube", None),
                                           ("crossed", None), ("random", 1)])
    def test_trails_and_deficits_match_flow_only_runs(self, kind, seed, n,
                                                      monkeypatch):
        L = lgraph(kind, n, seed)
        g = L.graph
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        calls, flows = {}, {}

        def hub_start(r, u, dead):
            start = UnitFlowEngine.hub_start(engine, r, u, dead)
            calls[u] = r, dead, start
            return start

        def live_only(r, u, dead):
            return [p for i, p in enumerate(engine.stored_paths(r)[u])
                    if i not in dead]

        def max_flow(s, t, cutoff=None, start=()):
            flows[s] = t, cutoff, start
            return UnitFlowEngine.max_flow(engine, s, t, cutoff, start)

        seen = {"covered": 0, "uncovered": 0, "partly_mended": 0,
                "violating": 0}
        step = 15 if n == 5 else 1      # naive: 0.6 s per passing set at n=5
        for i, idx in enumerate(self._fault_sets(L, n)):
            engine.set_fault_indices(idx)
            faulty = remove_edges(g, [g.edges[k] for k in idx])
            calls.clear()
            flows.clear()
            with monkeypatch.context() as mp:
                mp.setattr(engine, "hub_start", hub_start)
                mp.setattr(engine, "max_flow", max_flow)
                deficits = hub_deficits(engine)
            live_of = {}
            for u, (r, dead, start) in calls.items():
                if r not in live_of:
                    live_of[r] = scan = live_paths(engine, r)
                    assert set(calls) == {
                        x for x in range(g.n_vertices)
                        if x != r and len(scan[x]) < faulty.degree(x)}, idx
                live, need = live_of[r][u], faulty.degree(u)
                stored = engine.stored_paths(r)[u]
                assert dead == {i for i, p in enumerate(stored)
                                if p not in live}, idx
                assert len(live) < need, (idx, u)
                assert start[:len(live)] == live, (idx, u)
                trails = start[len(live):]
                problem = trail_problem(g.edges, idx, u, r, start)
                assert problem is None, (idx, u, problem)
                if len(start) >= need:
                    seen["covered"] += 1
                    assert u not in flows, (idx, u)
                else:
                    seen["uncovered"] += 1
                    assert flows[u] == (r, need, start), (idx, u)
                    seen["partly_mended"] += bool(trails)
            with monkeypatch.context() as mp:
                mp.setattr(engine, "hub_start", live_only)
                assert hub_deficits(engine) == deficits, idx
            seen["violating"] += bool(deficits)
            if i % step == 0:
                assert naive_is_smec(faulty)[0] == (not deficits), idx
        assert all(seen.values()), seen


class TestPocket:
    """pocket_fails claims a failure only from a cut around a fault end of
    degree 1 or 2: checked against smec_witness on suites and random sets,
    and required to fire on both sharp constructions."""

    @pytest.mark.parametrize("kind", [*NAMED_FAMILIES, "random"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_fires_only_where_the_witness_fails(self, kind, n):
        L = lgraph(kind, n, 1 if kind == "random" else None)
        g = L.graph
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        rng = SplitMix64(9100 + n)
        sets = [*adversarial_fault_indices(L, 2 * n - 3),
                *adversarial_fault_indices(L, 4 * n - 9)]
        sets += [tuple(rng.sample_indices(len(g.edges),
                                          1 + rng.randbelow(4 * n - 7)))
                 for _ in range(300)]
        seen = {"fired": 0, "passed": 0}
        for idx in sets:
            engine.set_fault_indices(idx)
            fails = smec_witness(engine) is not None
            if pocket_fails(engine):
                assert fails, idx
                seen["fired"] += 1
            seen["passed"] += not fails
        assert all(seen.values()), seen

    @pytest.mark.parametrize("kind", [*NAMED_FAMILIES, "random"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_fires_on_both_constructions(self, kind, n):
        L = lgraph(kind, n, 1 if kind == "random" else None)
        g = L.graph
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        index = {e: k for k, e in enumerate(g.edges)}
        for tw in (tightness_unconditional(L), tightness_conditional(L)):
            engine.set_fault_indices(sorted(index[e] for e in tw.fault_set))
            assert pocket_fails(engine), tw.core

    def test_needs_a_far_vertex_of_the_pocket_degree(self):
        # path 0-1-2 with fault 0-3: the pocket {0, 1} of dead end 0 has
        # one cut edge against deg 1 = 2, but no vertex outside it has
        # degree 2, and the path is SMEC
        g = build_graph(4, [(0, 1), (1, 2), (0, 3)])
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        engine.set_fault_indices([g.edges.index((0, 3))])
        assert smec_witness(engine) is None
        assert not pocket_fails(engine)


class TestVerdictOnly:
    """A chunk decides each set after its first failure by the verdict
    alone: a pocket's cut fails it with no hub work, or else the hub check
    stops at its first deficient vertex, and no pair scan or min cut runs.
    Checked per set against hub_deficits, and per campaign against a loop
    that runs smec_witness on every set."""

    @staticmethod
    def _wide_cuts(L, n):
        """Sets that fail with no pocket. At n >= 4, for some base vertices
        b, every edge from the line vertices at b but the last to line
        vertices away from b: the clique at b keeps n - 1 edges out, fewer
        than its last vertex's 2n - 2, while the stripped vertices keep
        degree n - 1 >= 3 and the far fault ends lose at most two edges.
        At n = 3, random sets of 2n faults, some of which fail through a
        larger cut."""
        g = L.graph
        if n == 3:
            rng = SplitMix64(3)
            return [tuple(rng.sample_indices(len(g.edges), 2 * n))
                    for _ in range(200)]
        sets = []
        for b in range(0, L.base.n_vertices, 5):
            clique = {i for i, e in enumerate(L.edge_of_vertex) if b in e}
            stripped = clique - {max(clique)}
            sets.append(tuple(
                k for k, (x, y) in enumerate(g.edges)
                if (x in stripped and y not in clique)
                or (y in stripped and x not in clique)))
        return sets

    @pytest.mark.parametrize("n,seed", [(3, 1), (4, 1), (4, 3), (5, 1)])
    def test_verdict_stops_at_the_first_deficient_vertex(self, n, seed,
                                                         monkeypatch):
        L = lgraph("random", n, seed)
        g = L.graph
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        flows = []
        engine.max_flow = lambda s, t, cutoff=None, start=(): \
            flows.append((s, t)) or \
            UnitFlowEngine.max_flow(engine, s, t, cutoff, start)
        losses = []
        engine.hub_losses = lambda hub: \
            losses.append(hub) or UnitFlowEngine.hub_losses(engine, hub)

        def refused(*args):
            raise AssertionError("pair scan or min cut in a verdict check")

        seen = {"pocket": 0, "hub_check": 0}
        for idx in [*TestWitnessScanAgainstTree._fault_sets(L, engine, n),
                    *self._wide_cuts(L, n)]:
            engine.set_fault_indices(idx)
            flows.clear()
            deficits = hub_deficits(engine)
            every = flows[:]
            flows.clear()
            losses.clear()
            with monkeypatch.context() as m:
                m.setattr(_campaign_exec, "smec_violation", refused)
                m.setattr(engine, "min_cut", refused)
                out = _campaign_exec._evaluate_one(
                    engine, None, g.edges, idx, "smec", 0, False)
            if not deficits:
                assert out is None and flows == every, idx
                continue
            assert out == {}, idx
            if pocket_fails(engine):
                # the pocket's cut fails the set before any hub work
                seen["pocket"] += 1
                assert not flows and not losses, idx
                continue
            seen["hub_check"] += 1
            u = min(deficits)
            # the verdict's flows are the hub check's, up to u's
            assert flows == every[:len(flows)] and flows[-1][0] == u, idx
            assert next(deficient_vertices(engine)) == (u, deficits[u]), idx
        assert all(seen.values()), seen

    @pytest.mark.parametrize("kind,seed,m,conditional", [
        ("random", 1, 5, False), ("random", 2, 5, False),
        ("random", 3, 5, False), ("crossed", None, 5, False),
        # one past 4n - 10 with min degree 2: the pockets are triangles
        ("crossed", None, 7, True)])
    def test_campaign_matches_a_witness_for_every_set(self, kind, seed, m,
                                                      conditional,
                                                      monkeypatch):
        L = lgraph(kind, 4, seed)
        g = L.graph
        c = FaultCampaign(mode="sampled", m=m, conditional=conditional,
                          samples=60, seed=seed or 1, adversarial=True)
        streams = []
        evaluate = _campaign_exec.evaluate_stream

        def recorded(g, stream, *args):
            streams.append(list(stream))
            return evaluate(g, iter(streams[-1]), *args)

        cuts = []
        min_cut = UnitFlowEngine.min_cut
        monkeypatch.setattr(_campaign_exec, "evaluate_stream", recorded)
        monkeypatch.setattr(_campaign_exec, "_CHUNK_SIZE", 7)
        monkeypatch.setattr(UnitFlowEngine, "min_cut", lambda self, s, t:
                            cuts.append((s, t)) or min_cut(self, s, t))
        solo = run_campaign(L, c, jobs=1)
        solo_cuts = len(cuts)
        parallel = run_campaign(L, c, jobs=2)
        sets = streams[0]
        assert streams[1] == sets
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        failed, first, pockets = [], None, 0
        for idx in sets:
            engine.set_fault_indices(idx)
            w = smec_witness(engine)
            failed.append(w is not None)
            if pocket_fails(engine):
                assert w is not None, idx
                pockets += 1
            if w is not None and first is None:
                first = {"fault_edges": [list(g.edges[k]) for k in idx],
                         **w.to_dict()}
        chunks = [failed[i:i + 7] for i in range(0, len(failed), 7)]
        assert sum(any(ch) for ch in chunks) >= 3
        assert any(sum(ch) >= 2 for ch in chunks)
        assert pockets
        skipped = solo.counts["skipped_conditional"]
        assert bool(skipped) == conditional
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
