"""Tests of the benchmark itself, on the smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
from certify import recheck_cuts  # noqa: E402
from probe import REFERENCE_S, Probe  # noqa: E402
from hlmenger import gen_family, line_graph_of_hl  # noqa: E402
from hlmenger.menger import check_tightness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(lines):
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    code, lines = run_bench("--workload", workload, "--seed", "1",
                            "--seconds", "1", "--trace", str(trace), "--smoke")
    out = result(lines)
    assert code == 0 and out["correct"] and out["failed"] == 0
    assert out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    values = {m: v["value"] for m, v in out["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        flows = values["flow.max_flow_calls"]
        assert (flows == 0) == (workload == "floor-cq6-jobs2")
        assert not any(line.startswith("MISSING") for line in lines)
    else:
        assert all(v > 0 for v in values.values())


def test_other_seed_skips_recorded_digests_but_checks_verdicts():
    code, lines = run_bench("--workload", "smec-violating-hl5", "--seed", "7",
                            "--seconds", "1", "--trace", "0", "--smoke")
    assert code == 0 and result(lines)["correct"]


def copy_checkout(dest: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_fails_without_the_program(tmp_path):
    code, lines = run_bench("--workload", "direct-mq7", "--seconds", "1",
                            "--trace", "0", cwd=copy_checkout(tmp_path, False))
    assert code != 0 and not lines


def test_wrong_recorded_digest_fails_the_run(tmp_path):
    checkout = copy_checkout(tmp_path, True)
    digests = checkout / "perfbench" / "digests.json"
    recorded = json.loads(digests.read_text())
    recorded["smoke"]["direct-mq7"][0] = "0" * 64
    digests.write_text(json.dumps(recorded))
    code, lines = run_bench("--workload", "direct-mq7", "--seconds", "1",
                            "--trace", "0", "--smoke", cwd=checkout)
    out = result(lines)
    assert code == 1 and not out["correct"] and out["failed"] >= 1
    assert any("differ from the recorded" in line for line in lines)


def test_cut_recheck_accepts_witnesses_and_rejects_corrupt_ones():
    L = line_graph_of_hl(gen_family("mobius1", 4))
    report = check_tightness(L, conditional=True, all_witnesses=True)
    witness, certs = report.witness, report.details
    assert certs and not recheck_cuts(L.graph, witness["fault_edges"], certs)

    short = dict(certs[0], cut=certs[0]["cut"][1:])
    assert recheck_cuts(L.graph, witness["fault_edges"], [short])
    loose = dict(certs[0], path_count=certs[0]["required"],
                 cut=certs[0]["cut"] + [list(L.graph.edges[-1])])
    assert recheck_cuts(L.graph, witness["fault_edges"], [loose])
    inside = [e for e in L.graph.edges
              if list(e) not in witness["fault_edges"] + certs[0]["cut"]]
    moved = dict(certs[0], cut=certs[0]["cut"][1:] + [list(inside[0])])
    assert recheck_cuts(L.graph, witness["fault_edges"], [moved])


def test_missing_entry_point_is_reported_not_fatal(monkeypatch):
    from hlmenger import flow

    probes = tracing.PROBES + (
        ("flow.gone", "hlmenger.flow:NoSuchEngine.max_flow", "count"),)
    monkeypatch.setattr(tracing, "PROBES", probes)
    original = flow.UnitFlowEngine.__dict__["max_flow"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert flow.UnitFlowEngine.__dict__["max_flow"] is not original
    finally:
        tracer.uninstall()
    assert flow.UnitFlowEngine.__dict__["max_flow"] is original
    assert tracer.missing == {
        "flow.gone": "hlmenger.flow:NoSuchEngine.max_flow not found"}


def test_probe_adjust_removes_probe_time_and_scales_to_reference():
    probe = Probe(timer=False)
    slow = 2 * REFERENCE_S
    # three probe runs at twice the reference time, one inside [10, 11]
    probe.samples = [(9.5, 9.5 + slow), (10.5, 10.5 + slow),
                     (11.2, 11.2 + slow)]
    net, speed = probe.adjust(10.0, 11.0)
    assert net == pytest.approx(1.0 - slow)
    assert speed == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        probe.adjust(100.0, 101.0)
