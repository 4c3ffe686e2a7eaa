"""edkit benchmark: one workload, closed loop, one iteration at a time.

    python3 perfbench/run.py --workload lanczos_solves --seed 1 --seconds 56 --trace 0

Run from the root of a source checkout; edkit is imported from its `src/`.
Workloads: lanczos_solves and subspace_profiles (see perfbench/README.md
for why each was chosen and what each metric means).

With `--trace 0` the last stdout line reports the end-to-end metrics
(wall_s, setup_s, peak_rss_mb, ok_frac); with `--trace 1` it reports the
per-layer metrics of a traced iteration. The lines before it are the
environment record and a readable summary. BLAS threads are pinned to the
CPUs this process may use. Results, environment records, span traces and
determinism fingerprints are kept under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# fresh processes that time set-up alone, after one untimed warm-up process
SETUP_PROBES = 3
# the run must end within 180 s; leave room for reporting and clean-up
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["EDKIT_WORKERS"] = "1"
    return env


def _spawn(args: argparse.Namespace, workdir: Path, tag: str, deadline: float,
           setup_only: bool) -> dict:
    result = workdir / f"{tag}.json"
    log = workdir / f"{tag}.log"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before starting {tag}")
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--t0", repr(t0), "--result", str(result)]
        if setup_only:
            cmd.append("--setup-only")
        try:
            proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=_child_env(),
                                  cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} did not finish within the {DEADLINE_S:.0f} s limit") from None
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text(errors="replace")[-3000:]
        raise BenchError(f"{tag} exited with code {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def _end_to_end(worker: dict, setup_samples: list[float], attempted: int, failed: int) -> dict:
    walls = [it["wall_s"] for it in worker["iterations"] if not it["traced"]]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (worker["peak_rss_kb"] / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def _per_layer(worker: dict) -> dict:
    import tracing

    traced = [it for it in worker["iterations"] if it["traced"]]
    untraced = [it["wall_s"] for it in worker["iterations"] if not it["traced"]]
    metrics = {}
    for name, unit in tracing.per_layer_metric_units().items():
        if name == "trace.overhead_s":
            value = statistics.median(it["wall_s"] for it in traced) - statistics.median(untraced)
        else:
            values = [it["layers"][name] for it in traced]
            value = None if None in values else statistics.median(values)
        metrics[name] = (value, unit)
    return metrics


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "edkit" / "__init__.py").is_file():
        raise BenchError(f"no edkit sources under {ROOT / 'src'}; run from a source checkout")
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workloads.WORKLOADS[args.workload].write_inputs(workdir, args.seed)
        _spawn(args, workdir, "setup-warmup", deadline, setup_only=True)
        setup_samples = [
            _spawn(args, workdir, f"setup{i}", deadline, setup_only=True)["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        worker = _spawn(args, workdir, "worker", deadline, setup_only=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_samples.append(worker["setup_s"])

    ops = list(worker["env_ops"]) + [op for it in worker["iterations"] for op in it["ops"]]
    attempted = len(ops)
    failures = [op for op in ops if not op[1]]
    if args.trace:
        metrics = _per_layer(worker)
    else:
        metrics = _end_to_end(worker, setup_samples, attempted, len(failures))

    walls = [round(it["wall_s"], 3) for it in worker["iterations"]]
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": worker["env"],
        "iteration_walls_s": walls,
        "setup_samples_s": setup_samples,
        "failures": failures,
        "metrics": reported,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    print("# env " + json.dumps(worker["env"], sort_keys=True))
    print(f"# {args.workload} seed {args.seed}: {len(walls)} iteration(s) {walls} s "
          f"({'first traced' if args.trace else 'untraced'}), "
          f"{len(setup_samples)} set-up samples, {attempted - len(failures)}/{attempted} ops ok")
    for name, ok, detail in failures:
        print(f"# FAILED {name}: {detail}")
    missing = sorted({m for it in worker["iterations"] for m in it.get("missing_wrappers", [])})
    if missing:
        print(f"# not traced (name not found): {', '.join(missing)}")
    for name, (value, unit) in metrics.items():
        shown = "unavailable" if value is None else f"{value:.6g} {unit}"
        print(f"#   {name:34s} {shown}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement budget of the closed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
