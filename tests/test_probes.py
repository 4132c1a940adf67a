"""The benchmark finds every package name it imports or wraps.

A renamed, moved or unexported name would leave a layer unmeasured or stop
the benchmark at start-up; this catches it in the package's own suite. The
benchmark is only read here.
"""

import ast
import importlib.util
import sys
from pathlib import Path

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
