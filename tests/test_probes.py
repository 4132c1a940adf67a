"""The benchmark's tracer finds every package entry point it wraps.

A renamed or moved entry point would leave its layer unmeasured; this
catches it in the package's own suite. The benchmark is only read here.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
