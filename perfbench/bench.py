"""Measurement, checks and output of one benchmark run (see run.py)."""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from hlmenger import cli, graph
from certify import check_report, digest
from probe import Probe
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, build_line_graph, setup_once

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_BATCH = 10

_now = time.perf_counter


@dataclass
class Outcome:
    """One checked request: wall time, report totals and what was wrong."""

    seconds: float
    counts: Counter = field(default_factory=Counter)  # summed report counts
    # per CLI call: (start, end, the report's timing_seconds)
    calls: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    start: float = 0.0
    # normalised seconds per raw second: probe runs taken out, scaled to
    # the reference machine speed (see probe.py)
    scale: float = 1.0

    @property
    def campaign_s(self) -> float:
        return sum(timing for _, _, timing in self.calls)

    def fault_sets_per_s(self) -> float:
        busy = self.campaign_s
        return self.counts["visited"] / busy if busy else 0.0


class Runner:
    """Runs requests of one plan and checks each as soon as it ends."""

    def __init__(self, plan, expected_digests):
        self.plan = plan
        self.expected = expected_digests
        self.g = build_line_graph(plan).graph   # for re-checking witnesses
        self.first_digests = None

    def request(self, jobs: int, tracer=None) -> Outcome:
        plan = self.plan
        span = tracer.span if tracer else (lambda name: nullcontext())
        results, connectivity, errors = [], None, []
        start = _now()
        try:
            with span("request"):
                if plan.connectivity is not None:
                    g = build_line_graph(plan).graph
                    connectivity = (graph.edge_connectivity(g),
                                    graph.vertex_connectivity(g))
                for check in plan.checks:
                    buffer = io.StringIO()
                    called = _now()
                    with span("cli.verify"), redirect_stdout(buffer):
                        code = cli.main([*check.argv, "--jobs", str(jobs)])
                    results.append((check, code, buffer.getvalue(), called,
                                    _now()))
        except Exception as exc:  # a raising request is counted, not fatal
            traceback.print_exc()
            errors.append(f"raised {type(exc).__name__}: {exc}")
        out = Outcome(_now() - start, errors=errors, start=start)
        self.check(out, results, connectivity)
        return out

    def check(self, out: Outcome, results, connectivity) -> None:
        """Verdicts, witness cuts, recorded digests and determinism."""
        want = self.plan.connectivity
        if want is not None and connectivity not in (None, (want, want)):
            out.errors.append(f"lambda, kappa = {connectivity}, expected "
                              f"{want}")
        for check, code, text, called, returned in results:
            report, errors = check_report(check, code, text, self.g)
            out.errors += errors
            if report is not None:
                out.counts.update(report.counts)
                out.calls.append((called, returned, report.timing_seconds))
                out.digests.append(digest(report))
        if len(out.digests) != len(self.plan.checks):
            out.errors.append("a check produced no report")
        elif self.expected is not None and out.digests != self.expected:
            out.errors.append("report digests differ from the recorded ones")
        if self.first_digests is None:
            self.first_digests = out.digests
        elif out.digests != self.first_digests:
            out.errors.append("report digests differ from the first "
                              "request's")

    def repeat(self, jobs, seconds, minimum, tracer=None,
               between=lambda: None) -> list[Outcome]:
        """Closed loop, one client: requests back to back for `seconds`,
        calling `between` after each."""
        outcomes = []
        start = _now()
        while len(outcomes) < minimum or _now() - start < seconds:
            if tracer is not None:
                tracer.start_request()
            outcomes.append(self.request(jobs, tracer))
            between()
        return outcomes


# -- metrics ----------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(sorted_values, permille: int):
    """Nearest-rank percentile (given in per mille) of an ascending list."""
    rank = max(1, -(-permille * len(sorted_values) // 1000))
    return sorted_values[rank - 1]


def timing_summary(durations, scale: float) -> dict:
    """p50, the highest of p99.9/p99/p90 with at least ten samples beyond
    it (p50 below that), the chosen percentile and the sample count."""
    values = sorted(d * scale for d in durations)
    n = len(values)
    permille = next((q for q in (999, 990, 900) if n * (1000 - q) >= 10_000),
                    500)
    return {"p50": percentile(values, 500) if n else 0.0,
            "tail": percentile(values, permille) if n else 0.0,
            "tail_pct": permille / 10, "n": n}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def time_setup(plan, setup: list) -> None:
    """Append SETUP_BATCH (start, end) intervals of set-up work."""
    gc.collect()        # the same collector state for every batch
    for _ in range(SETUP_BATCH):
        start = _now()
        setup_once(plan, plan.jobs)
        setup.append((start, _now()))


def end_to_end(probe: Probe, setup, timed: list[Outcome]) -> tuple[dict, dict]:
    """(metrics normalised to the reference machine speed, raw medians)."""
    def scale(start, end):
        net, speed = probe.adjust(start, end)
        return net / (end - start) * speed

    rates = []
    for out in timed:
        out.scale = scale(out.start, out.start + out.seconds)
        busy = sum(t * scale(a, b) for a, b, t in out.calls)
        rates.append(out.counts["visited"] / busy if busy else 0.0)
    setup_net = [probe.adjust(start, end) for start, end in setup]
    metrics = {
        "verify_s": metric(median([o.seconds * o.scale for o in timed]), "s"),
        "fault_sets_per_s": metric(median(rates), "1/s"),
        "setup_s": metric(median([net * speed for net, speed in setup_net]),
                          "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    raw = {
        "verify_s": median([o.seconds for o in timed]),
        "fault_sets_per_s": median([o.fault_sets_per_s() for o in timed]),
        "setup_s": median([net for net, _ in setup_net]),
        "probe_s": median([e - s for s, e in probe.samples]),
    }
    return metrics, raw


# per-layer metric -> the layer whose entry point it needs
LAYER_OF = {
    "topologies.generate_ms": "topologies.generate",
    "linegraph.line_graph_ms": "linegraph.line_graph",
    "flow.max_flow_calls": "flow.max_flow",
    "flow.augmentations": "flow.max_flow",
    "flow.calls_per_fault_set": "flow.max_flow",
    "flow.busy_share": "flow.max_flow",
    "flow.directed_max_flow_calls": "flow.directed_max_flow",
    "rng.sample_draw_us": "rng.sample_draw",
    "menger.adversarial_suite_ms": "menger.adversarial_suite",
    "menger.adversarial_sets": "menger.adversarial_suite",
    "menger.tightness_ms": "menger.tightness",
    "graph.edge_connectivity_ms": "graph.edge_connectivity",
    "graph.vertex_connectivity_ms": "graph.vertex_connectivity",
    **{f"exec.{kind}_check_ms.{part}": "exec.check"
       for kind in ("smec", "floor") for part in ("p50", "tail", "tail_pct",
                                                   "n")},
}


def exact_counts(out: Outcome, request) -> dict:
    """Counts of one traced request that must repeat exactly."""
    return {
        "exec.visited": out.counts["visited"],
        "exec.skipped": out.counts["skipped_conditional"],
        "exec.violations": out.counts["failures"],
        "flow.max_flow_calls": request.layers["flow.max_flow"][0],
        "flow.augmentations": request.counts["flow.augmentations"],
        "flow.directed_max_flow_calls":
            request.layers["flow.directed_max_flow"][0],
        "menger.adversarial_sets": request.counts["menger.adversarial_sets"],
    }


def per_layer(traced: list[Outcome], tracer, baseline: Outcome,
              parallel) -> dict:
    requests = tracer.requests
    durations = {}
    for r in requests:
        for layer, values in r.durations.items():
            durations.setdefault(layer, []).extend(values)

    def ms(layer, scale=1e3):
        return scale * median(durations.get(layer, []))

    counts = [exact_counts(o, r) for o, r in zip(traced, requests)]
    for out, c in zip(traced[1:], counts[1:]):
        if c != counts[0]:
            out.errors.append("exact counts differ from the first request's")
    values = dict(counts[0])
    visited, skipped = values["exec.visited"], values["exec.skipped"]
    for kind in ("smec", "floor"):
        summary = timing_summary(durations.get(f"exec.{kind}_check", []), 1e3)
        for part, value in summary.items():
            values[f"exec.{kind}_check_ms.{part}"] = value
    values.update({
        "topologies.generate_ms": ms("topologies.generate"),
        "linegraph.line_graph_ms": ms("linegraph.line_graph"),
        "flow.calls_per_fault_set":
            values["flow.max_flow_calls"] / visited if visited else 0.0,
        "flow.busy_share": median([
            (r.layers["flow.max_flow"][1] +
             r.layers["flow.directed_max_flow"][1]) / o.seconds
            for o, r in zip(traced, requests)]),
        "exec.skip_share":
            skipped / (visited + skipped) if visited + skipped else 0.0,
        "exec.violation_share":
            values["exec.violations"] / visited if visited else 0.0,
        "rng.sample_draw_us": ms("rng.sample_draw", 1e6),
        "menger.adversarial_suite_ms": ms("menger.adversarial_suite"),
        "menger.tightness_ms": 1e3 * median(
            [sum(r.durations.get("menger.tightness", [])) for r in requests]),
        "graph.edge_connectivity_ms": ms("graph.edge_connectivity"),
        "graph.vertex_connectivity_ms": ms("graph.vertex_connectivity"),
        "exec.jobs2_speedup": (baseline.campaign_s / parallel.campaign_s
                               if parallel and parallel.campaign_s else 0.0),
        "trace.overhead_s":
            median([o.seconds for o in traced]) - baseline.seconds,
    })
    return values


def measure_untraced(runner: Runner, seconds: int):
    plan = runner.plan
    setup = []
    setup_once(plan, plan.jobs)            # warm-up, not timed
    with Probe(timer=plan.jobs == 1) as probe:
        # set-up takes milliseconds, so it is timed in batches spread over
        # the whole run
        def between():
            probe.burst()
            time_setup(plan, setup)

        time_setup(plan, setup)
        timed = runner.repeat(plan.jobs, seconds, 2, between=between)
    metrics, raw = end_to_end(probe, setup, timed)
    # reports must not depend on --jobs
    extra = [runner.request(1)] if plan.jobs > 1 else []
    return timed + extra, metrics, raw, None


def measure_traced(runner: Runner, seconds: int):
    plan = runner.plan
    # untraced references: at the traced run's jobs, and at the workload's
    baseline = runner.request(1)
    parallel = runner.request(plan.jobs) if plan.jobs > 1 else None
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.repeat(1, seconds, 2, tracer)
    finally:
        tracer.uninstall()
    values = per_layer(traced, tracer, baseline, parallel)
    for name, layer in sorted(LAYER_OF.items()):
        if layer in tracer.missing:
            values[name] = 0
            print(f"MISSING {name}: {tracer.missing[layer]}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: metric(values[m["name"]], m["unit"])
               for m in spec["per_layer"]}
    outcomes = [baseline, *([parallel] if parallel else []), *traced]
    return outcomes, metrics, {}, tracer


# -- context and output -----------------------------------------------------


def commit_of(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark of the hlmenger verifier, one workload per run")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded one)")
    parser.add_argument("--seconds", type=int, default=20,
                        help="how long requests repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same code and checks")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(cli.__file__).resolve().parent != SRC / "hlmenger":
        print(f"error: imported hlmenger from {cli.__file__}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    scale = "smoke" if args.smoke else "full"
    plan = WORKLOADS[args.workload](seed, args.smoke)
    recorded = json.loads((HERE / "digests.json").read_text())
    expected = None
    if seed == recorded["seed"] or plan.seed_independent:
        expected = recorded[scale].get(plan.name)
        if expected is None:
            print(f"error: no recorded digests for {scale} {plan.name}",
                  file=sys.stderr)
            return 2
    context = {
        "workload": plan.name, "seed": seed, "scale": scale,
        "trace": args.trace, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit_of(ROOT), "source_sha256": source_sha256(SRC),
    }
    print("# context " + json.dumps(context, sort_keys=True), flush=True)

    runner = Runner(plan, expected)
    measure = measure_traced if args.trace else measure_untraced
    outcomes, metrics, raw, tracer = measure(runner, args.seconds)

    failed = sum(1 for o in outcomes if o.errors)
    for i, out in enumerate(outcomes):
        for error in out.errors:
            print(f"ERROR request {i}: {error}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"{'raw ' + name:34s} {value:.6g} (not normalised)")
    print(f"{'error_rate':34s} {failed / len(outcomes):.6g} share "
          f"({failed} of {len(outcomes)} requests)")

    OUT.mkdir(exist_ok=True)
    stem = f"{plan.name}-{scale}-seed{seed}-trace{args.trace}"
    record = {"context": context, "metrics": metrics,
              "raw": raw, "error_rate": failed / len(outcomes),
              "requests": [{"seconds": o.seconds, "scale": o.scale,
                            "fault_sets_per_s": o.fault_sets_per_s(),
                            "digests": o.digests, "errors": o.errors}
                           for o in outcomes]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json", context)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
