"""VerificationReport schema: round-trips, the witness/failures invariant
and the JSON writer against the stdlib's."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from hlmenger import FaultCampaign, run_campaign, validate_hl
from hlmenger.report import VerificationReport, dumps

from util import lgraph, network


def test_round_trip_is_lossless():
    report = run_campaign(lgraph("crossed", 3),
                          FaultCampaign(mode="exhaustive", m=1))
    back = VerificationReport.from_dict(report.to_dict())
    assert back == report
    assert back.to_json() == report.to_json()


def test_failures_zero_iff_witness_absent():
    passing = run_campaign(lgraph("hypercube", 3),
                           FaultCampaign(mode="exhaustive", m=2))
    assert passing.counts["failures"] == 0 and passing.witness is None
    failing = run_campaign(
        lgraph("hypercube", 3),
        FaultCampaign(mode="sampled", m=3, samples=0, seed=0, adversarial=True))
    assert failing.counts["failures"] > 0 and failing.witness is not None


def test_canonical_json_excludes_only_timing():
    report = validate_hl(network("ltq", 3))
    a = report.to_dict()
    report.timing_seconds = 123.0
    b = report.to_dict()
    a.pop("timing_seconds")
    b.pop("timing_seconds")
    assert a == b
    assert "timing_seconds" not in report.canonical_json()


def test_schema_version_present():
    report = validate_hl(network("hypercube", 2))
    assert report.schema_version == "1"
    assert report.to_dict()["schema_version"] == "1"


def test_from_dict_ignores_unknown_keys_and_defaults_optional_ones():
    required = {"check_name": "x", "target": {}, "mode": "direct",
                "parameters": {}, "counts": {"failures": 0}}
    report = VerificationReport.from_dict({**required, "extra": 1})
    assert report == VerificationReport(**required)
    assert report.details == [] and report.witness is None
    assert list(report.to_dict()) == [*required, "witness", "details",
                                      "timing_seconds", "schema_version"]
    for key in required:
        with pytest.raises(KeyError, match=key):
            VerificationReport.from_dict(
                {k: v for k, v in required.items() if k != key})


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[], {}], {"b": [[]]}],
    {"k": [{"x": [], "y": {}}, [], ({},)]},
    [1, True, 2], [False], [True, False, None], [0, -1, 2**70, -2**70],
    {"ints": [3, 1, 2], "mixed": [1, 1.5, "s", None, True]},
    (1, 2), ((), ((3,),)), {"pair": (0, 1), "cut": [(4, 5), (6, 7)]},
    ["\u00e9", "\u2028", "\x00\x1f\x7f", "tab\t\"quote\"\\", "\U0001f600"],
    {"\u00e9": 1, "\n": 2, "": 3, "b": 4, "B": 5, "a": 6},
    [-0.0, 0.0, 1e16, 1e-7, 0.1, 1.5, -2.5e300, 5e-324],
    [math.nan, math.inf, -math.inf], math.nan, -0.0,
    "plain", 7, -7, True, False, None, 1.0,
], ids=repr)
def test_dumps_matches_the_stdlib(obj):
    assert dumps(obj) == stdlib(obj)


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2**80, max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e16, math.nan, math.inf, -math.inf]),
    st.text(), st.text(st.characters(max_codepoint=0x3f)),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(values)
def test_dumps_matches_the_stdlib_on_nested_values(obj):
    assert dumps(obj) == stdlib(obj)


@pytest.mark.parametrize("obj", [
    {1, 2}, [frozenset()], {"k": {1}}, object(), b"bytes", {1: "int key"},
], ids=repr)
def test_dumps_refuses_other_types(obj):
    with pytest.raises(TypeError):
        dumps(obj)


def test_report_json_is_the_stdlib_rendering():
    report = run_campaign(
        lgraph("hypercube", 3),
        FaultCampaign(mode="sampled", m=3, samples=0, seed=0, adversarial=True))
    assert report.to_json() == stdlib(report.to_dict())
    data = report.to_dict()
    del data["timing_seconds"]
    assert report.canonical_json() == stdlib(data)
