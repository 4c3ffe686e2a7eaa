"""Every edkit name the benchmark's tracer wraps must exist, so that a
rename cannot silently drop a per-layer span from the traced run."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing() -> dict:
    # executed from source, so no bytecode cache is written into perfbench/
    namespace: dict = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_trace_targets_resolve():
    tracing = _tracing()
    for modname, attr, _ in tracing["FUNCTIONS"]:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
    for modname, clsname, attr, _ in tracing["METHODS"]:
        cls = getattr(importlib.import_module(modname), clsname, None)
        # the tracer wraps the attribute the class itself defines
        assert cls is not None and attr in vars(cls), f"{modname}.{clsname}.{attr}"
