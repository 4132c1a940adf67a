"""VerificationReport schema: round-trips and the witness/failures invariant."""

import pytest

from hlmenger import FaultCampaign, run_campaign, validate_hl
from hlmenger.report import VerificationReport

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
