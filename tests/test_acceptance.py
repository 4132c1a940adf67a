"""Acceptance suite: one test per criterion, exact integer tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with its wall time. Connectivity quantities are exact, so
every comparison below is equality or a strict bound, never approximate.
"""

import json
import time
from contextlib import contextmanager
from functools import lru_cache

from hlmenger import (
    FaultCampaign,
    check_component_lemma,
    check_prop_3_1,
    check_tightness,
    edge_connectivity,
    max_edge_disjoint_paths,
    remove_edges,
    run_campaign,
    tightness_conditional,
    vertex_connectivity,
)
from hlmenger.cli import main as cli_main

from util import RANDOM_SEEDS, brute_force_min_cut, corpus, cut_disconnects, \
    lgraph, random_graph

APPENDIX_A_SEED = 7
THEOREM_42_SEED = 8


@contextmanager
def criterion(num: int, desc: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {desc} "
              f"({time.perf_counter() - started:.1f}s)")
        raise
    print(f"ACCEPTANCE {num:02d} PASS {desc} "
          f"({time.perf_counter() - started:.1f}s)")


def line_graphs(n):
    kinds = [(k, None) for k, _ in corpus(n)[:5]]
    kinds += [("random", s) for s in RANDOM_SEEDS]
    out = []
    for kind, seed in kinds:
        name = kind if seed is None else f"random{seed}"
        out.append((name, lgraph(kind, n, seed)))
    return out


def test_criterion_01_base_network_connectivity():
    with criterion(1, "kappa = lambda = n for the corpus, n in [1,5]"):
        for n in range(1, 6):
            for name, h in corpus(n):
                lam = edge_connectivity(h.graph)
                kap = vertex_connectivity(h.graph)
                assert lam == n, (name, n, lam)
                assert kap == n, (name, n, kap)


def test_criterion_02_line_graph_connectivity():
    with criterion(2, "kappa(L) = lambda(L) = 2n-2 for the corpus, n in [2,5]"):
        for n in range(2, 6):
            for name, L in line_graphs(n):
                g = L.graph
                assert g.n_vertices == n * 2 ** (n - 1), (name, n)
                assert all(g.degree(v) == 2 * n - 2
                           for v in range(g.n_vertices)), (name, n)
                lam = edge_connectivity(g)
                kap = vertex_connectivity(g)
                assert lam == 2 * n - 2, (name, n, lam)
                assert kap == 2 * n - 2, (name, n, kap)


def test_criterion_03_proposition_3_1():
    with criterion(3, "two f-neighbors / (n-1)+(n-1) half-neighbors, n in [2,6]"):
        for n in range(2, 7):
            for name, h in corpus(n):
                report = check_prop_3_1(h)
                assert report.passed, (name, n, report.witness)


def test_criterion_04_fault_tolerant_smec_n3():
    with criterion(4, "exhaustive |F| <= 2 on every L(Q_3): 301 sets, 0 failures"):
        for n3 in [line_graphs(3)]:
            for name, L in n3:
                report = run_campaign(L, FaultCampaign(mode="exhaustive", m=2))
                assert report.counts["visited"] == 301, name
                assert report.counts["failures"] == 0, (name, report.witness)


def test_criterion_05_unconditional_tightness(tmp_path, capsys):
    with criterion(5, "|S| = 2n-3 breaks SMEC via CLI, exit 1, n in [3,5]"):
        cases = [("hypercube",), ("crossed",), ("mobius0",), ("mobius1",),
                 ("ltq",), ("random", 1), ("random", 2)]
        for n in range(3, 6):
            for case in cases:
                argv = ["verify", "--check", "tight-uncond",
                        "--family", case[0], "--n", str(n)]
                if len(case) > 1:
                    argv += ["--seed", str(case[1])]
                out_path = tmp_path / f"r-{case[0]}-{n}.json"
                argv += ["--out", str(out_path)]
                code = cli_main(argv)
                capsys.readouterr()
                assert code == 1, (case, n)
                w = json.loads(out_path.read_text())["witness"]
                assert w["fault_size"] == 2 * n - 3, (case, n)
                assert w["path_count"] <= 2 * n - 3 < 2 * n - 2 == w["required"]
                seed = case[1] if len(case) > 1 else None
                L = lgraph(case[0], n, seed)
                faulty = remove_edges(
                    L.graph, [tuple(e) for e in w["fault_edges"]])
                assert cut_disconnects(faulty, *w["pair"], w["cut"])
                assert len(w["cut"]) == w["path_count"]


def test_criterion_06_component_lemma_exhaustive_n3():
    with criterion(6, "55455 fault sets on L(Q_3): component >= 11"):
        for name, L in line_graphs(3)[:5]:
            report = check_component_lemma(
                L, 5, 11, FaultCampaign(mode="exhaustive", m=5))
            assert report.counts["visited"] == 55455, name
            assert report.counts["failures"] == 0, (name, report.witness)


def _appendix_a_report():
    return check_component_lemma(
        lgraph("crossed", 4), 11, 30,
        FaultCampaign(mode="sampled", m=11, samples=100_000,
                      seed=APPENDIX_A_SEED, adversarial=True))


@lru_cache(maxsize=1)
def appendix_a_report_cached():
    return _appendix_a_report()


def test_criterion_07_appendix_a_n4():
    with criterion(7, "10^5 samples + adversarial, |S| <= 11: component >= 30"):
        report = appendix_a_report_cached()
        assert report.counts["visited"] >= 100_000
        assert report.counts["failures"] == 0, report.witness
        assert report.parameters["adversarial_count"] > 0


def _theorem_42_report():
    return run_campaign(
        lgraph("crossed", 4),
        FaultCampaign(mode="sampled", m=6, conditional=True, samples=10_000,
                      seed=THEOREM_42_SEED, adversarial=True))


@lru_cache(maxsize=1)
def theorem_42_report_cached():
    return _theorem_42_report()


def test_criterion_08_conditional_smec_n4():
    with criterion(8, "10^4 conditional samples + adversarial, |F| <= 6: SMEC"):
        report = theorem_42_report_cached()
        assert report.counts["visited"] >= 10_000
        assert report.counts["failures"] == 0, report.witness


def test_criterion_09_conditional_tightness():
    with criterion(9, "|S| = 4n-9, delta >= 2 breaks SMEC, n in [4,5]"):
        cases = ["hypercube", "crossed", "mobius0", "mobius1", "ltq",
                 ("random", 1), ("random", 2)]
        for n in (4, 5):
            for case in cases:
                kind, seed = (case, None) if isinstance(case, str) else case
                L = lgraph(kind, n, seed)
                tw = tightness_conditional(L)
                assert len(tw.fault_set) == 4 * n - 9, (case, n)
                faulty = remove_edges(L.graph, tw.fault_set)
                assert faulty.min_degree() >= 2, (case, n)
                report = check_tightness(L, conditional=True)
                w = report.witness
                assert w is not None, (case, n)
                assert w["deg_u1_after"] == 2, (case, n)
                assert w["deg_u2_after"] == 3, (case, n)
                assert w["path_count"] <= 2 * n - 3 < 2 * n - 2 == w["required"]
                assert cut_disconnects(faulty, *w["pair"], w["cut"])


def test_criterion_10_menger_oracle_equivalence():
    with criterion(10, "max-flow = brute-force min cut on 200 random graphs"):
        for seed in range(200):
            g = random_graph(seed, max_vertices=8, max_edges=14)
            for u in range(g.n_vertices):
                for v in range(u + 1, g.n_vertices):
                    flow = max_edge_disjoint_paths(g, u, v).value
                    limit = min(g.degree(u), g.degree(v)) + 1
                    assert flow == brute_force_min_cut(g, u, v, limit), \
                        (seed, u, v)


def test_criterion_11_determinism():
    with criterion(11, "criteria 7 and 8 reports are byte-identical on reruns"):
        again_a = _appendix_a_report()
        assert again_a.canonical_json() == appendix_a_report_cached().canonical_json()
        again_b = _theorem_42_report()
        assert again_b.canonical_json() == theorem_42_report_cached().canonical_json()
