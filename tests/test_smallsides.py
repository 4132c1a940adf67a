"""smallsides: the SMEC decider on the base network, against the hub check.

smallsides.fails decides a fault set of L(H) from the connected edge sets
of H that span at most mu base vertices, and smallsides.least_pair reads
the first violating pair off them. Every case here compares the verdict,
the least pair and the witness a campaign builds from it with
smec_witness, the hub check with its pair scan, on the six families at
n = 4 and 5: the adversarial suites at 2n-4, 2n-3, 4n-10 and 4n-9, both
sharp constructions and seeded random sets, with both verdicts
required, as built and with the pockets emptied so that the search
decides alone; and at n = 6 on sets that strip two line vertices and on
a four-edge star that only the capped charge keeps. The layout must
refuse wherever kappa(H) <= mu: at n = 4, m = 7 and on two copies of
K_4 - e joined by two edges, where the search without the check misses
failing sets. The pocket step alone is checked side by side, each
pocket's cut counted edge by edge on L - F. The enumerator is checked
against all edge subsets of small graphs, with seeded charge tables.
"""

from collections import Counter
from dataclasses import replace
from itertools import accumulate, combinations

import pytest

from hlmenger import NAMED_FAMILIES, FaultCampaign, build_graph, \
    line_graph, run_campaign, smallsides, tightness_conditional, \
    tightness_unconditional
from hlmenger._campaign_exec import _State, _evaluate_one, _witness, \
    smec_witness
from hlmenger.flow import UnitFlowEngine
from hlmenger.menger import BOUNDS, adversarial_fault_indices
from hlmenger.rng import SplitMix64

from util import lgraph, random_graph, two_k4_minus_e

FAMILIES = [*NAMED_FAMILIES, "random"]

# a connected base of 9 vertices and degrees 2 to 4
IRREGULAR_EDGES = [(0, 3), (0, 4), (0, 8), (1, 3), (1, 5), (1, 6), (1, 7),
                   (2, 4), (2, 5), (2, 6), (3, 4), (3, 8), (5, 6), (5, 7),
                   (6, 7)]

def budgets(n):
    return (2 * n - 4, 2 * n - 3, 4 * n - 10, 4 * n - 9)


def mu(n, m):
    return (2 * n - 3 + m) // (n - 1)


class TestLayout:
    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("n", [4, 5])
    def test_refuses_exactly_where_kappa_is_at_most_mu(self, kind, n):
        # kappa(HL_n) = n: at n = 4 the layout refuses m = 4n - 9 = 7 only
        L = lgraph(kind, n, 1 if kind == "random" else None)
        refused = [m for m in budgets(n) if smallsides.layout(L, m) is None]
        assert refused == [m for m in budgets(n) if n <= mu(n, m)]
        assert refused == ([7] if n == 4 else [])

    def test_refuses_two_copies_of_k4_minus_e(self):
        L = two_k4_minus_e()
        assert smallsides.layout(L, 0) is not None       # mu = 1 < 2
        for m in range(1, 5):
            assert smallsides.layout(L, m) is None, m

    def test_the_search_alone_misses_failures_there(self):
        """On the two-K_4 - e base one fault in the clique at a joining
        vertex leaves a side of five line vertices, spanning four base
        vertices, with a cut of 3 against degree 4. The search, built
        without the kappa check, stops at mu = 2 base vertices and
        passes the set."""
        L = two_k4_minus_e()
        g = L.graph
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        unchecked = smallsides.Layout(L)
        missed = 0
        for k in range(len(g.edges)):
            engine.set_fault_indices((k,))
            if smec_witness(engine) is not None:
                assert not smallsides.fails(unchecked, (k,))
                missed += 1
        assert missed

    def test_refuses_a_base_that_is_not_regular(self):
        """A connected base of degrees 2 to 4, marked as dimension 3, whose
        kappa passes both checks at m = 0. L itself is not SMEC, and the
        campaign's one (empty) set must fail with the pair scan's witness."""
        L = replace(line_graph(build_graph(9, IRREGULAR_EDGES)),
                    base_dimension=3)
        assert smallsides.layout(L, 0) is None
        assert smallsides.floor_layout(L, 0) is None
        g = L.graph
        witness = smec_witness(UnitFlowEngine(g.n_vertices, g.edges))
        report = run_campaign(L, FaultCampaign(mode="exhaustive", m=0))
        assert not report.passed
        assert report.witness == {**witness.to_dict(), "fault_edges": []}

    def test_refuses_bases_without_a_dimension_or_below_three(self):
        k4 = build_graph(4, [(a, b) for a, b in combinations(range(4), 2)])
        assert smallsides.layout(line_graph(k4), 0) is None
        assert smallsides.layout(lgraph("hypercube", 2), 0) is None

    def test_a_campaign_of_no_sets_builds_no_layout(self, monkeypatch):
        def refused(*args):
            raise AssertionError("built for a campaign of no sets")

        monkeypatch.setattr(smallsides, "layout", refused)
        monkeypatch.setattr(UnitFlowEngine, "__init__", refused)
        report = run_campaign(lgraph("crossed", 5), FaultCampaign(
            mode="sampled", m=10, conditional=True, samples=0, seed=1))
        assert report.counts["visited"] == 0

    def test_a_passing_campaign_builds_no_flow_engine(self, monkeypatch):
        """cond-ft-smec on L(CQ_5) at its budget 4n - 10: the layout
        decides every set with no flow, and as no set fails, no witness
        needs the engine either. In process, as a pool restarts a worker
        whose initializer raises without end."""
        def refused(*args):
            raise AssertionError("flow engine built")

        L = lgraph("crossed", 5)
        monkeypatch.setattr(UnitFlowEngine, "__init__", refused)
        report = run_campaign(L, FaultCampaign(
            mode="sampled", m=10, conditional=True, samples=300, seed=1,
            adversarial=True))
        assert report.passed and report.counts["visited"] > 300


# each campaign check of BOUNDS with the layout that decides it
PAPER_BUDGETS = {"lemma32": smallsides.floor_layout,
                 "lemma41": smallsides.floor_layout,
                 "appendixA": smallsides.floor_layout,
                 "ft-smec": smallsides.layout,
                 "cond-ft-smec": smallsides.layout}


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("kind", FAMILIES)
def test_no_paper_budget_reaches_a_fallback(kind, n):
    """Every campaign check at the paper's budget, from its min_n to 7,
    has a layout, so no such campaign takes the cold hub check or the
    plain component search. The one exception is ft-smec at n = 2,
    budget 0: L(HL_2) is a 4-cycle, below smallsides' n >= 3."""
    L = lgraph(kind, n, 1 if kind == "random" else None)
    checked = 0
    for check, build in PAPER_BUDGETS.items():
        bound = BOUNDS[check]
        if n < bound.min_n or bound.max_n is not None and n > bound.max_n:
            continue
        laid = build(L, bound.faults(n))
        assert (laid is None) == (n == 2), (check, bound.faults(n))
        checked += 1
    assert checked


class TestFails:
    @staticmethod
    def _sets(L, n, m):
        """Every k-th set of the adversarial suite at m, the constructions
        that fit m, and 40 seeded random sets of m faults."""
        g = L.graph
        suite = adversarial_fault_indices(L, m)
        sets = suite[::max(1, len(suite) // 60)]
        index = {e: k for k, e in enumerate(g.edges)}
        for tw in (tightness_unconditional(L), tightness_conditional(L)):
            if len(tw.fault_set) <= m:
                sets.append(tuple(sorted(index[e] for e in tw.fault_set)))
        rng = SplitMix64(400 + 10 * n + m)
        sets += [tuple(rng.sample_indices(len(g.edges), m))
                 for _ in range(40)]
        return sets

    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("n", [4, 5])
    def test_agrees_with_the_witness(self, kind, n):
        """With the layout as built, and with L's adjacency emptied in it
        so that no pocket settles a set and the search decides alone, the
        verdict and the least pair over all the violating sides equal
        smec_witness's, and so does the witness a campaign computes from
        them with one min_cut."""
        L = lgraph(kind, n, 1 if kind == "random" else None)
        g = L.graph
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        seen = {"fails": 0, "passes": 0}
        for m in budgets(n):
            campaign = _State(L, m, None)
            layout = campaign.layout
            if layout is None:
                continue
            search = smallsides.layout(L, m)
            search.line_adj = [()] * g.n_vertices
            for idx in self._sets(L, n, m):
                engine.set_fault_indices(idx)
                w = smec_witness(engine)
                fails = w is not None
                pair = (w.u, w.v) if fails else None
                for sides in (layout, search):
                    assert smallsides.fails(sides, idx) == fails, (m, idx)
                    assert smallsides.least_pair(sides, idx) == pair, \
                        (m, idx)
                assert _evaluate_one(campaign, idx) is fails, (m, idx)
                if fails:
                    assert _witness(campaign, idx) == {
                        "fault_edges": [list(g.edges[k]) for k in idx],
                        **w.to_dict()}, (m, idx)
                seen["fails" if fails else "passes"] += 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("kind", ["hypercube", "crossed", "random"])
    def test_least_pair_of_stripped_line_vertices(self, kind):
        """At n = 6 the layout covers up to 20 faults (mu = 5 < kappa = 6
        at m = 18), enough to strip two line vertices, whose sides hold
        more than one vertex above their cut or give pairs in another
        order than their pockets: an isolated edge x-y (cut 0, both ends
        of degree 1), a dead end x whose neighbour u keeps two edges (x's
        degree equals the cut of {x, u}), and two dead ends far apart
        (two pockets). least_pair must give smec_witness's pair."""
        L = lgraph(kind, 6, 1 if kind == "random" else None)
        g = L.graph
        inc = [{} for _ in range(g.n_vertices)]
        for k, (a, b) in enumerate(g.edges):
            inc[a][b] = inc[b][a] = k

        def strip(x, *keep):
            return [k for w, k in inc[x].items() if w not in keep]

        sets = []
        for x in (0, 70, 129, 191):
            y, u = min(inc[x]), max(inc[x])
            w = max(set(inc[u]) - {x})
            far = next(z for z in range(g.n_vertices - 1, -1, -1)
                       if not set(inc[z]) & {x, *inc[x]})
            sets += [strip(x, y) + strip(y, x), strip(x, u) + strip(u, x, w),
                     strip(x, y) + strip(far, min(inc[far])),
                     strip(x, u) + strip(far, max(inc[far]))]
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        for idx in map(sorted, sets):
            layout = smallsides.layout(L, len(idx))
            assert layout is not None, idx
            engine.set_fault_indices(idx)
            w = smec_witness(engine)
            assert smallsides.least_pair(layout, idx) == (w.u, w.v), idx

    @pytest.mark.parametrize("kind", ["hypercube", "crossed", "random"])
    @pytest.mark.parametrize("u", [0, 40])
    def test_a_star_past_the_peak_of_t_times_n_minus_t(self, kind, u):
        """At n = 6 and 19 faults mu is 5. Take four edges x1..x4 at base
        vertex u, fault every clique edge of x1, x2, x3 at their far ends
        (15 faults, each far end hosts 5) and the edges from x1 and x2 to
        the two other edges at u (4 faults at u). The star {x1..x4} is
        the only violating side: cut 9 against deg' x4 = 10. At t_u = 4,
        u charges min(4 * 2, (mu - 1)(n - mu + 1)) - 4 = 4; uncapped,
        a three-edge subset holding x4 would charge 3 * 3 - 4 = 5 at u
        and 5 at x4's far end, 10 > 2n - 3, and cut the branch."""
        L = lgraph(kind, 6, 1 if kind == "random" else None)
        g = L.graph
        index = {e: k for k, e in enumerate(g.edges)}
        base, vertex = L.base, L.vertex_of_edge
        near = sorted(base.neighbors(u))
        x1, x2, x3, y1, y2, x4 = (vertex[min(u, v), max(u, v)]
                                  for v in near)
        idx = []
        for x, v in zip((x1, x2, x3), near):
            for w in base.neighbors(v):
                z = vertex[min(v, w), max(v, w)]
                if z != x:
                    idx.append(index[min(x, z), max(x, z)])
        idx = sorted(idx + [index[x, y] for x in (x1, x2) for y in (y1, y2)])
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        engine.set_fault_indices(idx)
        w = smec_witness(engine)
        assert w is not None and x4 in (w.u, w.v)
        layout = smallsides.layout(L, len(idx))
        assert [(side, cut) for side, cut in smallsides.violating_sides(
            layout, idx)] == [({x1, x2, x3, x4}, 9)]
        assert smallsides.least_pair(layout, idx) == (w.u, w.v)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_the_search_fails_both_constructions(self, kind):
        """The 2n-3 construction's side is the dead end u0 with its kept
        neighbour, whose far base vertex hosts no fault; the 4n-9 one's is
        the triangle, three edges at one base vertex. With L's adjacency
        emptied in the layout, every pocket is a lone fault end, whose cut
        is its own degree, so the search alone must find these sides."""
        L = lgraph(kind, 5, 1 if kind == "random" else None)
        index = {e: k for k, e in enumerate(L.graph.edges)}
        for tw in (tightness_unconditional(L), tightness_conditional(L)):
            idx = sorted(index[e] for e in tw.fault_set)
            layout = smallsides.layout(L, len(idx))
            layout.line_adj = [()] * L.graph.n_vertices
            assert smallsides.fails(layout, idx), tw.core

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_pockets_settle_both_constructions_before_the_search(
            self, kind, monkeypatch):
        """Each construction leaves a fault end of degree 1 or 2 whose
        pocket, the end with its live neighbours, is a violating side."""
        def refused(*args):
            raise AssertionError("search run on a set with a pocket")

        monkeypatch.setattr(smallsides, "connected_edge_sets", refused)
        L = lgraph(kind, 5, 1 if kind == "random" else None)
        index = {e: k for k, e in enumerate(L.graph.edges)}
        for tw in (tightness_unconditional(L), tightness_conditional(L)):
            idx = sorted(index[e] for e in tw.fault_set)
            layout = smallsides.layout(L, len(idx))
            assert smallsides.fails(layout, idx), tw.core


class TestPocket:
    """The pocket step of violating_sides, run with the search stubbed
    out: each side it yields is a fault end y of deg' 1 or 2 with its
    live neighbours, whose cut, counted edge by edge in L - F, is the
    cut yielded and lies below both the largest degree in the side and
    the largest outside it. Checked against smec_witness on suites and
    random sets, required to give the side of both sharp constructions,
    and required to hold back where no vertex outside the pocket has a
    degree above its cut."""

    @staticmethod
    def _pockets(layout, idx, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(smallsides, "connected_edge_sets",
                       lambda *args: iter(()))
            return list(smallsides.violating_sides(layout, idx))

    @staticmethod
    def _certify(g, idx, side, cut):
        dead = {g.edges[k] for k in idx}
        live = [[] for _ in range(g.n_vertices)]
        for a, b in g.edges:
            if (a, b) not in dead:
                live[a].append(b)
                live[b].append(a)
        assert any(0 < len(live[y]) <= 2 and side == {y, *live[y]}
                   for y in {x for e in dead for x in e}), (idx, side)
        assert sum(w not in side for y in side for w in live[y]) == cut, \
            (idx, side)
        outside = max(len(live[y]) for y in range(g.n_vertices)
                      if y not in side)
        assert cut < min(max(len(live[y]) for y in side), outside), \
            (idx, side)

    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("n", [4, 5])
    def test_fires_only_where_the_witness_fails(self, kind, n, monkeypatch):
        """On a spread of the adversarial suites at every budget with a
        layout and on seeded random sets, every pocket is a certified
        violating side, the pockets come first among all the sides, and
        a set with one fails smec_witness."""
        L = lgraph(kind, n, 1 if kind == "random" else None)
        g = L.graph
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        rng = SplitMix64(9100 + n)
        seen = {"fired": 0, "passed": 0}
        for m in budgets(n):
            layout = smallsides.layout(L, m)
            if layout is None:
                continue
            suite = adversarial_fault_indices(L, m)
            sets = suite[::max(1, len(suite) // 40)] + [
                tuple(rng.sample_indices(len(g.edges), 1 + rng.randbelow(m)))
                for _ in range(20)]
            for idx in sets:
                pockets = self._pockets(layout, idx, monkeypatch)
                for side, cut in pockets:
                    self._certify(g, idx, side, cut)
                sides = smallsides.violating_sides(layout, idx)
                assert [next(sides) for _ in pockets] == pockets, idx
                if pockets:
                    engine.set_fault_indices(idx)
                    assert smec_witness(engine) is not None, idx
                    seen["fired"] += 1
                seen["passed"] += not smallsides.fails(layout, idx)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("n", [4, 5])
    def test_fires_on_both_constructions(self, kind, n, monkeypatch):
        """The pockets hold each construction's side, its core with the
        pair's first end (the dead end u0 with its kept neighbour, or the
        triangle), with the construction's path count as its cut. At
        n = 4 the 4n-9 construction has no layout (kappa = mu = 4)."""
        L = lgraph(kind, n, 1 if kind == "random" else None)
        g = L.graph
        index = {e: k for k, e in enumerate(g.edges)}
        built = 0
        for tw in (tightness_unconditional(L), tightness_conditional(L)):
            idx = sorted(index[e] for e in tw.fault_set)
            layout = smallsides.layout(L, len(idx))
            if layout is None:
                assert n == 4 and len(idx) == 4 * n - 9, tw.core
                continue
            pockets = self._pockets(layout, idx, monkeypatch)
            for side, cut in pockets:
                self._certify(g, idx, side, cut)
            assert ({*tw.core, tw.u}, tw.expected_max_paths) in pockets, \
                tw.core
            built += 1
        assert built == (1 if n == 4 else 2)

    def test_needs_a_far_vertex_of_the_pocket_degree(self, monkeypatch):
        """L(K_4), marked as a base of dimension 3, with three of line
        vertex 01's four edges faulted and the edge 13-23: 01's pocket
        {01, 02} has cut 3 against deg' 02 = 4, but every vertex outside
        it has degree 3 at most and only 02 has no fault, so the pocket
        does not violate, and L - F is SMEC."""
        k4 = build_graph(4, list(combinations(range(4), 2)))
        L = replace(line_graph(k4), base_dimension=3)
        g = L.graph
        y, kept = L.vertex_of_edge[(0, 1)], L.vertex_of_edge[(0, 2)]
        far = L.vertex_of_edge[(1, 3)], L.vertex_of_edge[(2, 3)]
        idx = sorted(k for k, e in enumerate(g.edges)
                     if (y in e and kept not in e) or set(e) == set(far))
        engine = UnitFlowEngine(g.n_vertices, g.edges)
        engine.set_fault_indices(idx)
        assert engine.degrees[y] == 1 and engine.degrees[kept] == 4
        assert max(d for x, d in enumerate(engine.degrees)
                   if x not in (y, kept)) == 3
        assert smec_witness(engine) is None
        assert self._pockets(smallsides.Layout(L), idx, monkeypatch) == []


def brute_force_edge_sets(g, size):
    """Every nonempty edge set of g that is connected and spans at most
    `size` vertices, as (sorted vertex tuple, edge tuple), by subsets."""
    out = []
    for k in range(1, len(g.edges) + 1):
        for x in combinations(g.edges, k):
            verts = sorted({v for e in x for v in e})
            if len(verts) > size:
                continue
            reach, stack = {verts[0]}, [verts[0]]
            while stack:
                v = stack.pop()
                for a, b in x:
                    for p, q in ((a, b), (b, a)):
                        if p == v and q not in reach:
                            reach.add(q)
                            stack.append(q)
            if len(reach) == len(verts):
                out.append((tuple(verts), x))
    return out


class TestConnectedEdgeSets:
    @pytest.mark.parametrize("seed", range(24))
    def test_lists_every_connected_edge_set_once(self, seed):
        """With seeded roots, fault counts, a non-decreasing charge table,
        cap and need, the enumerator lists each qualifying connected edge
        set once: those whose vertex set M holds a root, spans at most
        `size` vertices, charges at most the cap (max(0, charge[t_u] -
        f_u) summed over M, t_u the set's edges at u) and hosts at least
        the need."""
        g = random_graph(seed, max_vertices=7, max_edges=11)
        adj = [g.neighbors(v) for v in range(g.n_vertices)]
        rng = SplitMix64(seed)
        size = 2 + rng.randbelow(4)
        f = [0] * g.n_vertices
        roots = rng.sample_indices(g.n_vertices, 1 + rng.randbelow(
            g.n_vertices))
        for v in roots:
            f[v] = rng.randbelow(4)
        roots.sort(key=lambda v: -f[v])
        charge = [0, *accumulate(rng.randbelow(3) for _ in range(size - 1))]
        cap = rng.randbelow(6)
        need = rng.randbelow(sum(f) + 1)
        listed = [tuple(sorted(x)) for x in smallsides.connected_edge_sets(
            adj, roots, size, f, charge, cap, need)]
        assert len(listed) == len(set(listed))
        want = set()
        for m, x in brute_force_edge_sets(g, size):
            t = Counter(v for e in x for v in e)
            if set(m) & set(roots) and sum(
                    max(0, charge[t[v]] - f[v]) for v in m) <= cap and sum(
                    f[v] for v in m) >= need:
                want.add(x)
        assert set(listed) == want

    @pytest.mark.parametrize("kind,n", [("hypercube", 3), ("crossed", 3),
                                        ("mobius0", 3)])
    def test_every_set_of_a_base_network_from_every_root(self, kind, n):
        h = lgraph(kind, n).base
        adj = [h.neighbors(v) for v in range(h.n_vertices)]
        listed = [tuple(sorted(x)) for x in smallsides.connected_edge_sets(
            adj, range(h.n_vertices), 4, [0] * h.n_vertices, [0] * 4, 0, 0)]
        assert sorted(listed) == sorted(
            x for _, x in brute_force_edge_sets(h, 4))
