"""One fresh benchmark process: set-up, then the closed-loop iterations.

Started by run.py, never by hand. `--t0` is the parent's monotonic clock
just before it started this process, so `setup_s` runs from interpreter
start through `import edkit` and the workload's config/geometry load. With
`--setup-only` the process stops there. Otherwise it runs iterations one at
a time, at least two, and more while the next one is predicted to end
within `--seconds`; with `--trace 1` the first iteration is traced. It
writes everything it measured to `--result` as JSON. Peak memory is read
after the first iteration, so it covers set-up plus one iteration whatever
the iteration count.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _blas_threads() -> int | None:
    """Threads of every OpenBLAS loaded into this process (the largest)."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.startswith("/"):
                libs.add(path)
    found = []
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found.append(int(fn()))
                break
    return max(found) if found else None


def _mem_total_kb() -> int | None:
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mem_total_kb": _mem_total_kb(),
        "cpu": _cpu_model(),
        "seed": seed,
    }


def _source_digest() -> str:
    """Digest of the edkit sources, so a stored fingerprint is only compared
    with runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _compare(ops, name: str, reference: dict, fingerprint: dict) -> None:
    shared = sorted(set(reference) & set(fingerprint))
    differ = [k for k in shared if reference[k] != fingerprint[k]]
    ops.add(name, not differ, f"compared {shared}, differ {differ}")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    state = workload.setup(ROOT, workdir, args.seed)
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    import tracing

    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    env = environment(args.seed)
    env_ops = workloads.Ops()
    threads = env["blas_threads"]
    env_ops.add("BLAS threads <= nproc", threads is not None and threads <= env["nproc"],
                f"{threads} thread(s), nproc {env['nproc']}")

    record_path = (HERE / "out" / "fingerprints"
                   / f"{workload.name}-seed{args.seed}-{_source_digest()}.json")
    stored = json.loads(record_path.read_text()) if record_path.exists() else {}

    iterations = []
    spans = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if iterations:
            mean = statistics.fmean(it["wall_s"] for it in iterations)
            if len(iterations) >= 2 and elapsed + mean > args.seconds:
                break
        traced = bool(args.trace) and not iterations
        ops = workloads.Ops()
        workload.reset(state)
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        t = time.perf_counter()
        try:
            outputs = workload.iterate(state, args.seed, ops)
        finally:
            wall = time.perf_counter() - t
            if tracer:
                tracer.uninstall()
        try:
            fingerprint = workload.check(state, outputs, refs, ops)
        except Exception as exc:  # a check that cannot run is a failed check
            ops.error("output checks", exc)
            fingerprint = {}
        it = {"wall_s": wall, "traced": traced}
        if not iterations:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            layers, identity_error = tracer.summary(wall)
            ops.add("self times + uncovered = traced wall", identity_error < 1e-6,
                    f"error {identity_error:.3g} s")
            for counter in tracing.DETERMINISTIC:
                if layers[counter] is not None:
                    fingerprint[counter] = layers[counter]
            it["layers"] = layers
            it["missing_wrappers"] = tracer.missing
            spans.append(tracer.span_records(t))
        if iterations:
            _compare(ops, "determinism vs first iteration", iterations[0]["fingerprint"], fingerprint)
        if stored:
            _compare(ops, "determinism vs earlier run", stored, fingerprint)
        it["fingerprint"] = fingerprint
        it["ops"] = ops.items
        iterations.append(it)
    workload.reset(state)

    stored.update({k: v for it in iterations for k, v in it["fingerprint"].items()})
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(stored, indent=1, sort_keys=True), encoding="utf-8")
    if spans:
        trace_path = HERE / "out" / "traces" / f"{workload.name}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(spans), encoding="utf-8")

    result.update({
        "env": env,
        "env_ops": env_ops.items,
        "iterations": iterations,
        "peak_rss_kb": peak_rss_kb,
    })
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
