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


def test_traced_calls_leave_no_null_metric():
    # a counter whose span ran but that reads 0 is reported as None, which
    # ends the traced benchmark run in a line that is not strict JSON
    import json
    import time

    import edkit.cli  # noqa: F401  (every edkit module, so the tracer finds each target)
    from edkit import analysis, entanglement, hamiltonian, lattice, solver

    tracing = _tracing()
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        t0 = time.perf_counter()
        chain = lattice.build_chain(6)
        spec = hamiltonian.ModelSpec(kind="hubbard", t=-1.0, U=4.0)
        cut = lattice.half_cut(chain, 3)
        h = hamiltonian.build_model(chain, spec, analysis._default_sector(chain, spec))
        ground = solver.lanczos_lowest(h, k=1, seed=1)
        eig, basis = analysis.labeled_state(chain, spec, "1_Ag+", k=1, seed=1)
        entanglement.schmidt_spectrum(ground.vectors[:, 0], h.basis, cut)
        analysis.entropy_profile(eig, basis, cut)
        analysis.subspace_spectrum(chain, spec, 0, -1, 1, spin=0.0)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert not tracer.missing
    metrics, _ = tracer.summary(wall)
    assert [name for name, value in metrics.items() if value is None] == []
    # both block solves reach `sharpen_spin` through the module, so the span stays
    assert all(metrics[name] > 0 for name in ("solver.sharpen_s", "solver.dense_eigh_s", "solver.label_solve_s"))
    json.dumps(metrics, allow_nan=False)
