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
kappa(H) = mu = 3 and the component index decides.
"""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from hlmenger import NAMED_FAMILIES, _campaign_exec
from hlmenger.cli import main
from hlmenger.report import VerificationReport

pytest.importorskip("networkx")

from reference import CHECKS, reference_json  # noqa: E402

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
def test_reports_equal_the_reference(request, jobs, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_campaign_exec, "_CHUNK_SIZE", chunk)
        got = cli_json(*request, jobs)
    assert got == reference_json(*request), request
