"""Line-graph construction, f-vertices, structural counts, and the BCDC pair."""

from dataclasses import replace

import pytest

from hlmenger import (
    NAMED_FAMILIES,
    bcdc,
    build_graph,
    check_prop_3_1,
    components,
    edge_connectivity,
    gen_family,
    line_graph,
    vertex_connectivity,
)
from hlmenger.linegraph import line_graph_of_hl, vertex_side

from util import bcdc_rule_agreement, corpus, lgraph, network, random_graph


class TestLineGraph:
    def test_path_p3(self):
        lg = line_graph(build_graph(3, [(0, 1), (1, 2)]))
        assert lg.graph.n_vertices == 2
        assert lg.graph.edges == ((0, 1),)

    def test_k2_gives_single_vertex(self):
        lg = line_graph(build_graph(2, [(0, 1)]))
        assert lg.graph.n_vertices == 1
        assert lg.graph.edges == ()

    def test_q3_counts(self):
        lg = lgraph("hypercube", 3)
        assert lg.graph.n_vertices == 12
        assert len(lg.graph.edges) == 24
        assert all(lg.graph.degree(v) == 4 for v in range(12))

    def test_provenance_maps_are_inverse(self):
        lg = lgraph("crossed", 4)
        assert len(lg.edge_of_vertex) == len(lg.base.edges)
        for e, i in lg.vertex_of_edge.items():
            assert lg.edge_of_vertex[i] == e
        assert list(lg.edge_of_vertex) == sorted(lg.edge_of_vertex)

    def test_adjacency_iff_shared_endpoint(self):
        g = random_graph(11)
        lg = line_graph(g)
        for i in range(lg.graph.n_vertices):
            for j in range(i + 1, lg.graph.n_vertices):
                a, b = set(lg.edge_of_vertex[i]), set(lg.edge_of_vertex[j])
                assert lg.graph.has_edge(i, j) == bool(a & b)

    def test_handshake_identity(self):
        for _, h in corpus(4):
            base = h.graph
            lg = line_graph(base)
            expected = sum(
                base.degree(v) * (base.degree(v) - 1) for v in range(base.n_vertices))
            assert 2 * len(lg.graph.edges) == expected

    def test_line_vertex_labels_pair_base_labels(self):
        lg = lgraph("hypercube", 2)
        u, v = lg.edge_of_vertex[0]
        base = lg.base
        assert lg.graph.labels[0] == f"{base.labels[u]},{base.labels[v]}"


class TestFVertices:
    def test_counts(self):
        assert len(lgraph("hypercube", 2).f_vertices) == 2
        assert len(lgraph("hypercube", 3).f_vertices) == 4
        assert len(lgraph("crossed", 4).f_vertices) == 8

    def test_f_vertices_are_cross_edges(self):
        lg = lgraph("crossed", 3)
        assert {lg.edge_of_vertex[i] for i in lg.f_vertices} == \
            set(network("crossed", 3).f_edges)

    def test_deleting_f_vertices_leaves_the_two_half_line_graphs(self):
        for kind in ("hypercube", "crossed", "ltq"):
            h = network(kind, 4)
            lg = line_graph_of_hl(h)
            keep = [v for v in range(lg.graph.n_vertices) if v not in lg.f_vertices]
            relabel = {v: i for i, v in enumerate(keep)}
            kept_edges = [
                (relabel[a], relabel[b]) for a, b in lg.graph.edges
                if a in relabel and b in relabel]
            sub = build_graph(len(keep), kept_edges)
            comps = components(sub)
            assert len(comps) == 2
            # base edges keep their canonical rank inside each side, so the
            # two components must reproduce the halves' line graphs exactly
            for side, half in ((0, h.construction.left),
                               (1, h.construction.right)):
                side_ids = [v for v in keep if vertex_side(lg, v) == side]
                rank = {v: i for i, v in enumerate(side_ids)}
                induced = {
                    (rank[a], rank[b]) for a, b in lg.graph.edges
                    if a in rank and b in rank}
                expected = set(line_graph(half.graph).graph.edges)
                assert induced == expected, (kind, side)
            sides = {vertex_side(lg, v) for v in lg.f_vertices}
            assert sides == {-1}

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
    @pytest.mark.parametrize("kind,seed", [(kind, None) for kind in
                                           NAMED_FAMILIES] + [("random", 1)])
    def test_connectivity_is_2n_minus_2(self, kind, seed, n):
        g = lgraph(kind, n, seed).graph
        assert edge_connectivity(g) == 2 * n - 2
        assert vertex_connectivity(g) == 2 * n - 2

    def test_counts_hold_up_to_dimension_6(self):
        for _, h in corpus(6):
            g = line_graph_of_hl(h).graph
            assert g.n_vertices == 6 * 2 ** 5
            assert all(g.degree(v) == 10 for v in range(g.n_vertices))


class TestProp31:
    def test_standard_q4(self):
        report = check_prop_3_1(network("hypercube", 4))
        assert report.passed
        assert report.counts["visited"] == 32

    def test_random_n5(self):
        assert check_prop_3_1(network("random", 5, 7)).passed

    def test_q2_trivial_counts(self):
        report = check_prop_3_1(network("hypercube", 2))
        assert report.passed

    def test_corpus(self):
        for n in (2, 3, 4):
            for _, h in corpus(n):
                assert check_prop_3_1(h).passed

    def test_requires_dimension_2(self):
        with pytest.raises(ValueError):
            check_prop_3_1(network("hypercube", 1))

    def test_f_edges_off_the_top_matching_fail(self):
        """Q_3 with its f-edges moved onto two edges of its left half: the
        line vertex of (0, 1), now marked as an f-vertex, sees n - 1 line
        vertices of the left half and none of the right."""
        h = network("hypercube", 3)
        moved = replace(h, f_edges=frozenset({(0, 1), (2, 3)}))
        report = check_prop_3_1(moved)
        assert not report.passed
        lg = line_graph_of_hl(h)
        assert report.witness["vertex"] == lg.vertex_of_edge[(0, 1)]
        assert report.witness["kind"] == "f"


class TestBcdc:
    def test_n3_counts(self):
        pair = bcdc(3)
        assert pair.original.n_vertices == 20
        assert pair.logical.graph.n_vertices == 12
        assert all(pair.logical.graph.degree(v) == 4 for v in range(12))

    def test_n2_logical_is_c4(self):
        pair = bcdc(2)
        g = pair.logical.graph
        assert g.n_vertices == 4
        assert sorted(g.degree(v) for v in range(4)) == [2, 2, 2, 2]
        assert len(components(g)) == 1

    def test_n4_counts(self):
        pair = bcdc(4)
        assert pair.logical.graph.n_vertices == 32
        assert all(pair.logical.graph.degree(v) == 6 for v in range(32))

    def test_switch_and_server_degrees(self):
        pair = bcdc(3)
        for v in range(1 << pair.dimension):
            assert pair.original.degree(v) == 3
        for v in range((1 << pair.dimension), pair.original.n_vertices):
            assert pair.original.degree(v) == 2

    def test_rule_agreement(self):
        for n in (2, 3, 4):
            assert bcdc_rule_agreement(bcdc(n))

    def test_server_labels_pair_switch_codes(self):
        pair = bcdc(3)
        base = gen_family("crossed", 3).graph
        for i, (u, v) in enumerate(base.edges):
            server = (1 << pair.dimension) + i
            assert pair.original.labels[server] == \
                f"{base.labels[u]},{base.labels[v]}"
            assert pair.logical.edge_of_vertex[i] == (u, v)

    def test_requires_dimension_2(self):
        with pytest.raises(ValueError):
            bcdc(1)
