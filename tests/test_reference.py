"""Whole reports against the networkx reference verifier (reference.py).

Each drawn request runs through cli.main, and its canonical JSON must
equal the reference's byte for byte: the check's verdict, the counts and
the first failure's witness, cut included. The draws cover the named
families and random, n = 3 and 4, the five campaign checks and `smec`,
exhaustive and sampled sweeps, --adversarial and --jobs 1 and 2, with
the evaluation chunk shrunk to a few sets on some requests so that the
failures spread over several chunks. The explicit examples pin the two
SMEC paths: n = 4 ft-smec at m = 5 and 6, where the small sides decide
and give the witnesses, and n = 3 at m >= 3 and n = 4 cond-ft-smec at
m = 7, where kappa(H) <= mu and the hub check decides. n = 3 at m = 6,
far past the budget, gives witness pairs with several minimum cuts, so
only the smallest source side reproduces the cut. Two more pin the two
floor paths: lemma41 at n = 4, m = 11, where the floor layout exists
(mu = 3 < kappa(H) = 4), and lemma32 at n = 3, m = 7, where
kappa(H) = mu = 3 and a plain component search of L - F decides. The
last, lemma32 at n = 5 and m = 19, six faults past the budget, takes
the floor layout with many sets whose faults have several heavy hosts,
so a layout decider that miscounts the components inside C changes its
report. One set-level case pins the heavy threshold itself: an edge of L
cut off by 4n - 6 faults, two of whose three hosts carry exactly n - 1.
Another writes the two sharp floor cut-offs through menger._cutoff, an
edge and a triangle of L with nothing kept, and checks both floor
deciders against networkx on them.
"""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from hlmenger import NAMED_FAMILIES, _campaign_exec, smallsides
from hlmenger.graph import incidence
from hlmenger.menger import BOUNDS, _cutoff
from hlmenger.cli import main
from hlmenger.report import VerificationReport

pytest.importorskip("networkx")

from reference import (CHECKS, largest_component,  # noqa: E402
                       reference_json)
from util import lgraph  # noqa: E402

# the dimensions each check is drawn at
DIMENSIONS = {"smec": (3, 4), "ft-smec": (3, 4), "cond-ft-smec": (3, 4),
              "lemma32": (3, 4), "lemma41": (4,), "appendixA": (4,)}


@st.composite
def requests(draw):
    n = draw(st.sampled_from((3, 4)))
    family = draw(st.sampled_from((*NAMED_FAMILIES, "random")))
    seed = draw(st.integers(1, 3))
    check = draw(st.sampled_from([c for c, ns in DIMENSIONS.items()
                                  if n in ns]))
    if check == "smec":
        return check, family, n, seed, 0, "exhaustive", 0, False
    smec = CHECKS[check][1] is None
    mode = draw(st.sampled_from(("sample", "exhaustive")))
    if mode == "exhaustive":
        m = draw(st.integers(0, 2 if n == 3 else 1))
    else:
        # past the paper's budget too: at n = 3 and m >= 6 a witness
        # pair often has several minimum cuts
        m = draw(st.integers(0, CHECKS[check][0](n) + (6 if n == 3 else 3)))
    # the suite of an n = 4 SMEC request is a few hundred flowed sets
    # in the reference: draw it only at the budgets without triangles
    adversarial = draw(st.booleans()) and not (smec and n == 4 and m > 6)
    samples = draw(st.integers(0, 6)) if mode == "sample" else 0
    return check, family, n, seed, m, mode, samples, adversarial


def cli_json(check, family, n, seed, m, mode, samples, adversarial,
             jobs) -> str:
    argv = ["verify", "--check", check, "--family", family, "--n", str(n),
            "--jobs", str(jobs)]
    if family == "random" or mode == "sample":
        argv += ["--seed", str(seed)]
    if check != "smec":
        argv += ["--m", str(m), "--mode", mode]
        if mode == "sample":
            argv += ["--samples", str(samples)]
        if adversarial:
            argv.append("--adversarial")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    report = VerificationReport.from_dict(json.loads(out.getvalue()))
    assert code == (1 if report.counts["failures"] else 0)
    return report.canonical_json()


@settings(max_examples=12, deadline=None)
@given(request=requests(), jobs=st.sampled_from((1, 2)),
       chunk=st.sampled_from((3, 512)))
@example(request=("ft-smec", "crossed", 4, 1, 5, "sample", 6, True),
         jobs=2, chunk=3)
@example(request=("ft-smec", "random", 4, 2, 6, "sample", 4, True),
         jobs=1, chunk=3)
@example(request=("ft-smec", "mobius1", 3, 1, 3, "sample", 6, True),
         jobs=2, chunk=3)
@example(request=("cond-ft-smec", "hypercube", 4, 1, 7, "sample", 6, False),
         jobs=1, chunk=512)
@example(request=("cond-ft-smec", "ltq", 3, 2, 3, "sample", 5, True),
         jobs=1, chunk=3)
@example(request=("ft-smec", "hypercube", 3, 1, 6, "sample", 6, False),
         jobs=2, chunk=512)
@example(request=("lemma41", "crossed", 4, 1, 11, "sample", 6, True),
         jobs=2, chunk=3)
@example(request=("lemma32", "crossed", 3, 2, 7, "sample", 6, True),
         jobs=1, chunk=3)
@example(request=("lemma32", "crossed", 5, 1, 19, "sample", 20, True),
         jobs=1, chunk=3)
def test_reports_equal_the_reference(request, jobs, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_campaign_exec, "_CHUNK_SIZE", chunk)
        got = cli_json(*request, jobs)
    assert got == reference_json(*request), request


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("family", NAMED_FAMILIES)
def test_floor_of_an_isolated_edge_of_the_line_graph(family, n):
    """Line vertices x = uv and y = vw of L(HL_n), adjacent at v, with
    every other edge of L at x or y faulted: 4n - 6 faults, of which u and
    w host exactly n - 1 each and v hosts 2n - 4. Within lemma41's budget
    6n - 13, the floor-layout decider must find networkx's largest
    component, |V(L)| - 2, which a heavy threshold of n would miss."""
    L = lgraph(family, n)
    g = L.graph
    u, w = L.base.neighbors(0)[:2]
    x, y = L.vertex_of_edge[0, u], L.vertex_of_edge[0, w]
    idx = tuple(k for k, e in enumerate(g.edges)
                if (x in e or y in e) and set(e) != {x, y})
    layout = smallsides.floor_layout(L, 6 * n - 13)
    hosts = [layout.at[k] for k in idx]
    assert len(idx) == 4 * n - 6
    assert (hosts.count(u), hosts.count(w)) == (n - 1, n - 1)
    size = largest_component(family, n, None, idx)
    assert size == g.n_vertices - 2
    assert smallsides.largest_component(layout, idx) == size


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("family", NAMED_FAMILIES)
def test_sharp_floor_cutoffs(family, n):
    """delta(S) with K empty, written by menger._cutoff: S = two adjacent
    line vertices cuts off an edge of L with 4n - 6 faults, one past
    lemma32's budget, and S = the three line vertices at base vertex 0
    cuts off a triangle with 6n - 12 faults, one past lemma41's. Each
    leaves networkx's largest component |V(L)| - |S|, below the lemma's
    floor. The floor-layout decider, where floor_layout exists (the
    triangle from n = 5), and the plain component search agree."""
    L = lgraph(family, n)
    g = L.graph
    inc = incidence(g)
    for side, keep, cut, lemma in (
            ((0, 1), ((1,), (0,)), 4 * n - 6, "lemma32"),
            ((0, 1, 2), ((1, 2), (0, 2), (0, 1)), 6 * n - 12, "lemma41")):
        bound = BOUNDS[lemma]
        idx = tuple(_cutoff(inc, side, keep))
        assert idx == tuple(sorted(k for k, e in enumerate(g.edges)
                                   if len(set(e) & set(side)) == 1))
        assert len(idx) == cut == bound.faults(n) + 1
        size = largest_component(family, n, None, idx)
        assert size == g.n_vertices - len(side) < bound.floor(n)
        assert _campaign_exec.largest_component_under_faults(g, idx) == size
        layout = smallsides.floor_layout(L, len(idx))
        assert layout is not None or (lemma, n) == ("lemma41", 4)
        if layout is not None:
            assert smallsides.largest_component(layout, idx) == size
