"""The benchmark finds every package name it imports or wraps.

A renamed, moved or unexported name would leave a layer unmeasured or stop
the benchmark at start-up; this catches it in the package's own suite. The
benchmark is only read here. A flow that bypassed its wrapped entry point
would leave a counter short, and one that went through the other class's
entry point would be counted as the wrong kind, so vertex connectivity's
flows and a SMEC campaign's are counted here too.
"""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

from hlmenger import flow, vertex_connectivity
from hlmenger.cli import main

from util import lgraph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_probe_finds_its_entry_point(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for dataclasses
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == {}
    finally:
        tracer.uninstall()


def test_every_name_the_benchmark_imports_resolves():
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "hlmenger"
        for alias in node.names]
    assert imports
    missing = []
    for file, module, name in imports:
        # `from m import x` finds an attribute of m or its submodule m.x
        if not hasattr(importlib.import_module(module), name) \
                and importlib.util.find_spec(f"{module}.{name}") is None:
            missing.append(f"{file}: from {module} import {name}")
    assert missing == []


UNIT_FLOWS = ("max_flow", "max_flow_with_side", "min_cut")


def count_flows(monkeypatch) -> Counter:
    """Count the augmenting loops ("loop"), the calls of
    DirectedFlow.max_flow ("directed") and those of UnitFlowEngine's
    wrapped flow methods ("unit"). UnitFlowEngine subclasses DirectedFlow,
    so a unit flow that went through DirectedFlow.max_flow would be
    counted as a directed one."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(flow, "_augment", counting("loop", flow._augment))
    monkeypatch.setattr(flow.DirectedFlow, "max_flow",
                        counting("directed", flow.DirectedFlow.max_flow))
    for name in UNIT_FLOWS:
        monkeypatch.setattr(flow.UnitFlowEngine, name, counting(
            "unit", flow.UnitFlowEngine.__dict__[name]))
    return calls


def test_every_kappa_flow_goes_through_directed_max_flow(monkeypatch):
    """The benchmark counts vertex connectivity's flows at
    DirectedFlow.max_flow; every augmenting loop that kappa runs must be
    one of those calls, and none of them a unit flow."""
    calls = count_flows(monkeypatch)
    assert vertex_connectivity(lgraph("crossed", 4).graph) == 6
    assert calls["loop"] == calls["directed"] > 0, calls
    assert calls["unit"] == 0, calls


def test_smec_campaign_makes_no_directed_flow(monkeypatch, capsys):
    """A SMEC campaign with a small-side layout runs no unit flow on these
    passing sets, and its directed flows are exactly those of one capped
    vertex_connectivity on the base network, the layout's kappa check:
    none runs on the line graph. At n = 4, m = 4n - 10 = 6 the check is
    kappa(H) >= mu + 1 = 4."""
    L = lgraph("crossed", 4)
    calls = count_flows(monkeypatch)
    assert vertex_connectivity(L.base, 4) == 4
    kappa = calls.copy()
    calls.clear()
    nodes = []
    directed = flow.DirectedFlow.max_flow
    monkeypatch.setattr(flow.DirectedFlow, "max_flow", lambda net, *args:
                        nodes.append(len(net.adj)) or directed(net, *args))
    code = main(["verify", "--check", "cond-ft-smec", "--family", "crossed",
                 "--n", "4", "--mode", "sample", "--samples", "20",
                 "--adversarial"])
    capsys.readouterr()
    assert code == 0
    assert calls["unit"] == 0 and calls["directed"] == kappa["directed"] > 0, \
        (calls, kappa)
    # the split network of the 16-vertex base, not of the 32-vertex L
    assert set(nodes) == {2 * L.base.n_vertices + 1}, nodes
