"""Hypercube-like network generators: join rules, families, validation."""

import pytest

from hlmenger import (
    NAMED_FAMILIES,
    build_graph,
    components,
    edge_connectivity,
    gen_family,
    gen_random_hl,
    hl_join,
    remove_edges,
    validate_hl,
    vertex_connectivity,
)
from hlmenger.topologies import HLNetwork, _PARTNER_RULES, _bit_labels, \
    _k2, family_bijection, hl_from_graph
from hlmenger.rng import mix_seed

from util import NOT_HL4_EDGES, corpus, network


def rule_direct_edges(kind, n):
    """Edge set over {0,1}^n straight from the family's adjacency rule.

    Two vertices are adjacent iff they agree above some bit position l,
    differ at l, and their low l-1 bits satisfy the family rule for a
    dimension-l join. Each edge is emitted once, from its endpoint with a
    0 at the top differing bit.
    """
    rule = _PARTNER_RULES[kind]
    edges = []
    for v in range(1 << n):
        for level in range(1, n + 1):
            if not (v >> (level - 1)) & 1:
                low = v & ((1 << (level - 1)) - 1)
                w = (v - low) | (1 << (level - 1)) | rule(low, level)
                edges.append((v, w))
    return edges


def cross_labels(h):
    """f-edges as sorted label pairs."""
    return sorted(
        (h.graph.labels[u], h.graph.labels[v]) for u, v in h.f_edges)


class TestHlJoin:
    def test_k2_join_identity_is_c4(self):
        j = hl_join(_k2(), _k2(), (0, 1))
        assert j.graph.n_vertices == 4
        assert sorted(j.graph.edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_k2_join_swap_is_also_c4(self):
        j = hl_join(_k2(), _k2(), (1, 0))
        assert sorted(j.graph.degree(v) for v in range(4)) == [2, 2, 2, 2]

    def test_identity_join_gives_standard_q3(self):
        q2 = gen_family("hypercube", 2)
        j = hl_join(q2, q2, (0, 1, 2, 3))
        assert cross_labels(j) == sorted(
            [("000", "100"), ("001", "101"), ("010", "110"), ("011", "111")])
        assert j.graph == gen_family("hypercube", 3).graph

    def test_pair_related_join_gives_cq3(self):
        q2 = gen_family("crossed", 2)
        j = hl_join(q2, q2, family_bijection("crossed", 3))
        assert cross_labels(j) == sorted(
            [("000", "100"), ("010", "110"), ("001", "111"), ("011", "101")])
        assert j.graph == gen_family("crossed", 3).graph

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            hl_join(_k2(), gen_family("hypercube", 2), (0, 1))

    def test_invalid_bijection(self):
        with pytest.raises(ValueError, match="permutation"):
            hl_join(_k2(), _k2(), (0, 0))


class TestGenFamily:
    def test_crossed_3_cross_edges(self):
        assert cross_labels(gen_family("crossed", 3)) == sorted(
            [("000", "100"), ("010", "110"), ("001", "111"), ("011", "101")])

    def test_mobius1_3_cross_edges(self):
        assert cross_labels(gen_family("mobius1", 3)) == sorted(
            [("000", "111"), ("001", "110"), ("010", "101"), ("011", "100")])

    def test_ltq_3_cross_edges(self):
        assert cross_labels(gen_family("ltq", 3)) == sorted(
            [("000", "100"), ("001", "111"), ("010", "110"), ("011", "101")])

    def test_mobius0_matches_hypercube(self):
        # the defining rule is the identity at every level, same as hypercube
        for n in (2, 3, 4):
            assert gen_family("mobius0", n).graph == gen_family("hypercube", n).graph

    def test_counts_and_regularity(self):
        for kind in NAMED_FAMILIES:
            for n in range(1, 7):
                h = gen_family(kind, n)
                g = h.graph
                assert g.n_vertices == 2 ** n
                assert len(g.edges) == n * 2 ** (n - 1)
                assert all(g.degree(v) == n for v in range(g.n_vertices))
                assert len(components(g)) == 1

    def test_connectivity_small(self):
        for kind in NAMED_FAMILIES:
            for n in range(1, 5):
                g = gen_family(kind, n).graph
                assert edge_connectivity(g) == n
                assert vertex_connectivity(g) == n

    def test_vertex_coding(self):
        h = gen_family("ltq", 4)
        for v in range(16):
            assert int(h.graph.labels[v], 2) == v

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gen_family("hypercube", 0)
        with pytest.raises(ValueError):
            gen_family("klein", 3)

    def test_recursive_equals_rule_direct(self):
        # every dimension a request may reach (check_size refuses n >= 14)
        for kind in NAMED_FAMILIES:
            for n in range(1, 14):
                edges = gen_family(kind, n).graph.edges
                assert edges == tuple(sorted(rule_direct_edges(kind, n))), \
                    (kind, n)
            for n in range(2, 7):
                half = gen_family(kind, n - 1)
                joined = hl_join(half, half, family_bijection(kind, n))
                assert joined.graph == gen_family(kind, n).graph


class TestFEdges:
    def test_f_edge_removal_splits_into_halves(self):
        for kind in NAMED_FAMILIES:
            h = gen_family(kind, 4)
            split = remove_edges(h.graph, h.f_edges)
            comps = components(split)
            assert [len(c) for c in comps] == [8, 8]
            assert comps[0] == list(range(8))
            left = h.construction.left
            left_edges = {e for e in split.edges if e[0] < 8}
            assert left_edges == set(left.graph.edges)

    def test_f_edge_count(self):
        for n in range(2, 7):
            assert len(gen_family("crossed", n).f_edges) == 2 ** (n - 1)

    def test_k2_has_no_f_edges(self):
        assert gen_family("hypercube", 1).f_edges == frozenset()


class TestRandomHl:
    def test_deterministic(self):
        a = gen_random_hl(4, 42)
        b = gen_random_hl(4, 42)
        assert a.graph == b.graph
        assert a.construction.bijection == b.construction.bijection

    def test_different_seeds_differ(self):
        assert gen_random_hl(4, 42).graph != gen_random_hl(4, 43).graph

    def test_dimension_1_is_k2(self):
        h = gen_random_hl(1, 7)
        assert h.graph.edges == ((0, 1),)

    def test_dimension_2_is_c4(self):
        for seed in range(5):
            g = gen_random_hl(2, seed).graph
            assert g.n_vertices == 4
            assert sorted(g.degree(v) for v in range(4)) == [2, 2, 2, 2]
            assert len(components(g)) == 1

    def test_seed_42_structure(self):
        h = gen_random_hl(4, 42)
        g = h.graph
        assert g.n_vertices == 16
        assert len(g.edges) == 32
        assert all(g.degree(v) == 4 for v in range(16))
        assert edge_connectivity(g) == 4

    def test_subseed_derivation_is_fixed(self):
        h = gen_random_hl(3, 9)
        assert h.construction.left.graph == gen_random_hl(2, mix_seed(9, 0)).graph
        assert h.construction.right.graph == gen_random_hl(2, mix_seed(9, 1)).graph


class TestValidateHl:
    def test_standard_q4_passes(self):
        report = validate_hl(gen_family("hypercube", 4))
        assert report.passed
        names = [d["check"] for d in report.details]
        assert "edge_connectivity" in names and "vertex_connectivity" in names

    def test_cq5_passes(self):
        assert validate_hl(gen_family("crossed", 5)).passed

    def test_corpus_passes(self):
        for _, h in corpus(3):
            assert validate_hl(h).passed

    def test_tampered_network_fails(self):
        h = gen_family("hypercube", 3)
        dropped = next(iter(h.f_edges))
        bad_graph = remove_edges(h.graph, [dropped])
        bad = HLNetwork(graph=bad_graph, dimension=3,
                        construction=h.construction, f_edges=h.f_edges)
        report = validate_hl(bad)
        assert not report.passed
        failed = {d["check"] for d in report.details if not d["passed"]}
        assert "edge_count" in failed
        assert "n_regular" in failed
        assert "f_edges_in_graph" in failed

    def test_coding_below_the_top_level_is_checked(self):
        g = build_graph(16, NOT_HL4_EDGES, _bit_labels(4))
        cross = frozenset(e for e in g.edges if e[0] < 8 <= e[1])
        report = validate_hl(HLNetwork(graph=g, dimension=4,
                                       construction=None, f_edges=cross))
        assert not report.passed
        assert report.witness == {"check": "coding_at_every_bit_level",
                                  "vertex": 1, "levels": [1, 3, 3, 4]}
        failed = [d["check"] for d in report.details if not d["passed"]]
        assert failed == ["coding_at_every_bit_level"]


class TestHlFromGraph:
    def test_round_trip(self):
        h = gen_family("crossed", 4)
        rebuilt = hl_from_graph(h.graph)
        assert rebuilt.dimension == 4
        assert rebuilt.f_edges == h.f_edges

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            hl_from_graph(build_graph(6, [(0, 1), (2, 3), (4, 5)]))

    def test_rejects_wrong_edge_count(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="expected 4 edges"):
            hl_from_graph(g)

    def test_rejects_broken_matching(self):
        # 2-regular on 4 vertices but both cross edges hit vertex 3
        g = build_graph(4, [(0, 1), (2, 3), (0, 3), (1, 2)])
        h = hl_from_graph(g)  # this one is a fine C_4 coding
        assert len(h.f_edges) == 2
        bad = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(ValueError, match="perfect matching"):
            hl_from_graph(bad)

    def test_rejects_non_hl_coding_below_the_top_level(self):
        g = build_graph(16, NOT_HL4_EDGES)
        with pytest.raises(ValueError, match=r"vertex 1 has neighbours at "
                           r"bit levels \[1, 3, 3, 4\].*perfect matching"):
            hl_from_graph(g)

    def test_accepts_every_generated_coding(self):
        for n in (1, 2, 3, 4, 5):
            for _, h in corpus(n):
                assert hl_from_graph(h.graph).f_edges == h.f_edges


def test_network_cache_consistency():
    assert network("hypercube", 3).graph == gen_family("hypercube", 3).graph
