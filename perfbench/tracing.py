"""In-memory tracing of hlmenger's layers, driven from outside the package.

`Tracer.install` wraps entry points of hlmenger's modules (module functions
and class methods) for the length of a traced run, and `uninstall` puts the
originals back; no file of the package changes. Every wrapped call adds its
total and self time (its duration minus that of wrapped calls inside it) to
its layer. Calls of the coarse layers (kind "span") also record a span:
id, parent span, layer, start, end and request. Per-call durations are kept
for the layers whose percentiles are reported; max-flow calls, which run
tens of thousands of times per request, are only counted. Everything stays
in memory until `dump` writes it out.

An entry point that no longer exists is recorded in `missing` and its layer
is left unwrapped, so a later refactor that removes it does not fail the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

_now = time.perf_counter

# campaign layers that classify per-fault-set checks as SMEC or floor checks
CHECK_KINDS = {"menger.run_campaign": "exec.smec_check",
               "menger.check_component_lemma": "exec.floor_check"}

# (layer, "module:attribute path", kind)
PROBES = (
    ("topologies.generate", "hlmenger.cli:generate", "span"),
    ("topologies.generate", "hlmenger.topologies:generate", "span"),
    ("linegraph.line_graph", "hlmenger.cli:line_graph_of_hl", "span"),
    ("linegraph.line_graph", "hlmenger.linegraph:line_graph_of_hl", "span"),
    ("menger.run_campaign", "hlmenger.cli:run_campaign", "span"),
    ("menger.check_component_lemma", "hlmenger.cli:check_component_lemma",
     "span"),
    ("menger.tightness", "hlmenger.cli:check_tightness", "span"),
    ("menger.adversarial_suite", "hlmenger.menger:adversarial_fault_indices",
     "span"),
    ("rng.sample_draw", "hlmenger.menger:_sample_stream", "draws"),
    ("exec.evaluate_stream", "hlmenger._campaign_exec:evaluate_stream", "span"),
    ("exec.check", "hlmenger._campaign_exec:_evaluate_one", "check"),
    ("exec.union_find",
     "hlmenger._campaign_exec:largest_component_under_faults", "count"),
    ("flow.max_flow", "hlmenger.flow:UnitFlowEngine.max_flow", "flow"),
    ("flow.max_flow", "hlmenger.flow:UnitFlowEngine.max_flow_with_side",
     "flow"),
    ("flow.max_flow", "hlmenger.flow:UnitFlowEngine.min_cut", "flow"),
    ("flow.directed_max_flow", "hlmenger.flow:DirectedFlow.max_flow", "count"),
    ("graph.edge_connectivity", "hlmenger.graph:edge_connectivity", "span"),
    ("graph.vertex_connectivity", "hlmenger.graph:vertex_connectivity", "span"),
)


@dataclass
class Request:
    """What one traced request did, layer by layer."""

    layers: dict = field(default_factory=lambda: defaultdict(
        lambda: [0, 0.0, 0.0]))            # layer -> [calls, total s, self s]
    durations: dict = field(default_factory=lambda: defaultdict(list))
    counts: Counter = field(default_factory=Counter)


class _Frame:
    __slots__ = ("layer", "start", "child", "span")

    def __init__(self, layer, span):
        self.layer = layer
        self.span = span
        self.child = 0.0
        self.start = _now()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, layer, start, end, request)
        self.requests: list[Request] = []
        self.missing: dict[str, str] = {}
        self._stack: list[_Frame] = []
        self._undo: list[tuple] = []

    # -- installing the probes ---------------------------------------------

    def install(self) -> None:
        found = set()
        for layer, target, kind in PROBES:
            module_name, path = target.split(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.setdefault(layer, f"{target} not found")
                continue
            found.add(layer)
            wrap = getattr(self, f"_wrap_{kind}")
            setattr(owner, attr, wrap(layer, original))
            self._undo.append((owner, attr, original))
        for layer in found:
            self.missing.pop(layer, None)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- frames and spans --------------------------------------------------

    def _enter(self, layer: str, span: bool) -> _Frame:
        frame = _Frame(layer, len(self.spans) if span else None)
        if span:
            parent = next((f.span for f in reversed(self._stack)
                           if f.span is not None), None)
            self.spans.append([frame.span, parent, layer, frame.start, None,
                               len(self.requests) - 1])
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        end = _now()
        self._stack.pop()
        elapsed = end - frame.start
        if self._stack:
            self._stack[-1].child += elapsed
        if frame.span is not None:
            self.spans[frame.span][4] = end
        stats = self.requests[-1].layers[frame.layer]
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += elapsed - frame.child
        return elapsed

    @contextmanager
    def span(self, layer: str):
        """A span around the benchmark's own calls."""
        frame = self._enter(layer, True)
        try:
            yield
        finally:
            self._exit(frame)

    def start_request(self) -> None:
        self.requests.append(Request())

    # -- wrappers, one per probe kind --------------------------------------

    def _wrap_span(self, layer, fn):
        def wrapper(*args, **kwargs):
            frame = self._enter(layer, True)
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = self._exit(frame)
            request = self.requests[-1]
            request.durations[layer].append(elapsed)
            if layer == "menger.adversarial_suite":
                request.counts["menger.adversarial_sets"] += len(out)
            return out
        return wrapper

    def _wrap_count(self, layer, fn):
        def wrapper(*args, **kwargs):
            frame = self._enter(layer, False)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return wrapper

    def _wrap_flow(self, layer, fn):
        def wrapper(*args, **kwargs):
            frame = self._enter(layer, False)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            # unit capacities: each augmenting path adds one to the value
            value = out[0] if isinstance(out, tuple) else out
            self.requests[-1].counts["flow.augmentations"] += value
            return out
        return wrapper

    def _wrap_check(self, layer, fn):
        def wrapper(*args, **kwargs):
            frame = self._enter(layer, False)
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = self._exit(frame)
            request = self.requests[-1]
            if isinstance(out, str):       # the executor's skip sentinel
                request.counts["exec.skipped_checks"] += 1
                return out
            kind = next((CHECK_KINDS[f.layer] for f in reversed(self._stack)
                         if f.layer in CHECK_KINDS), "exec.other_check")
            request.durations[kind].append(elapsed)
            return out
        return wrapper

    def _wrap_draws(self, layer, fn):
        def wrapper(*args, **kwargs):
            stream = fn(*args, **kwargs)
            durations = self.requests[-1].durations[layer]
            while True:
                frame = self._enter(layer, False)
                try:
                    item = next(stream)
                except StopIteration:
                    self._stack.pop()
                    return
                durations.append(self._exit(frame))
                yield item
        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path, context: dict) -> None:
        payload = {
            "context": context,
            "missing": self.missing,
            "spans": [dict(zip(("id", "parent", "layer", "start", "end",
                                "request"), s)) for s in self.spans],
            "requests": [
                {"layers": {k: {"calls": c, "total_s": t, "self_s": s}
                            for k, (c, t, s) in sorted(r.layers.items())},
                 "counts": dict(sorted(r.counts.items()))}
                for r in self.requests],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
