"""Command-line entry point.

Subcommands:

    edkit run <config>              execute a task described by a run config
    edkit verify <archive> [--tol]  re-check an eigenpair archive
    edkit geometry emit <kind>      print a geometry in the text format
    edkit tables multiplets <n>     total-spin multiplet counts

Exit codes: 0 success, 2 validation/config errors, 3 numerical failures
(non-convergence, failed verification checks).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    dos_histogram,
    entropy_profile,
    entropy_vs_logdos,
    sweep_block_size,
    sweep_ground_state,
)
from .archive import Archive, ArchiveChecksumError, ArchiveError, read_archive, write_archive
from .basis import enumerate_sector, multiplet_counts
from .config import ConfigError, RunConfig, load_config
from .entanglement import RDMSpectrum, decade_histogram, schmidt_spectrum
from .hamiltonian import build_model
from .lattice import (
    GeometryError,
    build_chain,
    build_icosahedron,
    format_geometry,
    half_cut,
)
from .solver import (
    NonConvergenceError,
    SolverError,
    dense_spectrum,
    dense_subspace_spectrum,
    lanczos_lowest,
    lowest_in_label,
)
from .symmetry import SymmetryError, classify, format_label

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
_OUT_OF_MEMORY = "out of memory: the sector, its operator or the solver workspace does not fit in RAM"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


class RunContext:
    """Tracks artifacts so the manifest lists every file the run wrote."""

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self.files: list[Path] = []
        self.start = time.time()
        cfg.output.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        p = self.cfg.output / name
        self.files.append(p)
        return p

    def write_csv(self, name: str, columns: list[str], rows, metadata: dict | None = None) -> Path:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            if metadata:
                fh.write(f"# metadata: {json.dumps(metadata, sort_keys=True)}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
        return p

    def finish(self, status: str, extra: dict | None = None, error: str | None = None) -> None:
        if status != "ok":
            renamed = []
            for p in self.files:
                if p.exists():
                    partial = p.with_name(p.name + ".partial")
                    p.rename(partial)
                    renamed.append(partial)
            self.files = renamed
        manifest = {
            "status": status,
            "task": self.cfg.task,
            "config": self.cfg.echo(),
            "seed": self.cfg.seed,
            "versions": {
                "edkit": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "wall_time_s": round(time.time() - self.start, 3),
            "files": [p.name for p in self.files],
        }
        if extra:
            manifest.update(extra)
        if error:
            manifest["error"] = error
        with open(self.cfg.output / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _solve_eigenset(cfg: RunConfig):
    h = build_model(cfg.geometry(), cfg.model(), cfg.sector)
    if cfg.label:
        return h, lowest_in_label(h, cfg.label, k=cfg.k, tol=cfg.tol, seed=cfg.seed)
    return h, lanczos_lowest(h, k=cfg.k, tol=cfg.tol, seed=cfg.seed)


def _task_solve(ctx: RunContext) -> dict:
    cfg = ctx.cfg
    _, eig = _solve_eigenset(cfg)
    write_archive(ctx.path("eigenpairs.edarch"), eig, cfg.geometry(), cfg.model(), cfg.sector,
                  tol=cfg.tol, seed=cfg.seed)
    return {
        "eigenvalues": [float(v) for v in eig.values],
        "labels": eig.labels,
        "matvecs": eig.matvecs,
    }


def _archive_state(cfg: RunConfig) -> tuple[int, str | None, RDMSpectrum]:
    """The [entangle] state of the input archive: its number, its stored
    label and its Schmidt spectrum across the cut after left_size sites."""
    arch = read_archive(cfg.archive)
    eig, state = arch.eigenset, cfg.state  # load checked 1 <= state <= k on this header
    basis = enumerate_sector(
        arch.geometry, arch.model.kind, arch.sector, site_spin=arch.model.site_spin
    )
    spectrum = schmidt_spectrum(eig.vectors[:, state - 1], basis, half_cut(arch.geometry, cfg.left_size))
    return state, eig.labels[state - 1] if eig.labels else None, spectrum


def _spectrum_rows(spectrum):
    for sec in sorted(spectrum.sectors, key=lambda s: (s.twice_ms_left, s.n_left)):
        for w in sec.weights:
            yield (sec.twice_ms_left, sec.n_left, float(w))


def _sector_rows(rows):
    for (tm, n), s in rows:
        yield (tm, n, float(s))


def _task_entangle(ctx: RunContext) -> dict:
    cfg = ctx.cfg
    if cfg.archive:
        state, _, spectrum = _archive_state(cfg)
    else:
        h, eig = _solve_eigenset(cfg)
        state = cfg.k
        cut = half_cut(cfg.geometry(), cfg.left_size)
        spectrum = schmidt_spectrum(eig.vectors[:, state - 1], h.basis, cut)
    ctx.write_csv(
        f"state{state}_spectrum.csv",
        ["two_ms_left", "n_left", "w"],
        _spectrum_rows(spectrum),
        metadata=_csv_meta(cfg.left_size, spectrum),
    )
    ctx.write_csv(
        f"state{state}_sectors.csv",
        ["two_ms_left", "n_left", "partial_entropy"],
        _sector_rows(spectrum.sector_entropies()),
        metadata=_csv_meta(cfg.left_size, spectrum),
    )
    return {"total_entropy_bits": spectrum.total_entropy}


def _csv_meta(left: int, spectrum: RDMSpectrum, label: str | None = None) -> dict:
    meta = {"left_size": left, "total_entropy_bits": spectrum.total_entropy}
    return meta | {"label": label} if label else meta


def _task_sector_table(ctx: RunContext) -> dict:
    state, label, spectrum = _archive_state(ctx.cfg)
    ctx.write_csv(
        f"state{state}_sectors.csv",
        ["two_ms_left", "n_left", "partial_entropy"],
        _sector_rows(spectrum.sector_entropies()),
        metadata=_csv_meta(ctx.cfg.left_size, spectrum, label),
    )
    return {"total_entropy_bits": spectrum.total_entropy}


def _task_histogram(ctx: RunContext) -> dict:
    state, label, spectrum = _archive_state(ctx.cfg)
    counts = decade_histogram(spectrum)
    ctx.write_csv(
        f"state{state}_decades.csv",
        ["decade", "count"],
        [(int(p), int(c)) for p, c in enumerate(counts)],
        metadata=_csv_meta(ctx.cfg.left_size, spectrum, label),
    )
    return {"decades": [int(c) for c in counts]}


def _dense_states(cfg: RunConfig):
    """The spectrum of the sector, or of its [subspace] block, and the cut after left_size sites."""
    h = build_model(cfg.geometry(), cfg.model(), cfg.sector)
    eig = dense_spectrum(h) if cfg.subspace is None else dense_subspace_spectrum(h, *cfg.subspace)
    return eig, h.basis, half_cut(cfg.geometry(), cfg.left_size)


def _task_profile(ctx: RunContext) -> dict:
    cfg = ctx.cfg
    eig, basis, cut = _dense_states(cfg)
    prof = entropy_profile(eig, basis, cut, smoothing=cfg.smoothing, bin_width=cfg.bin_width)
    ctx.write_csv(
        f"profile_{cfg.smoothing}.csv",
        ["x", "y"],
        zip(prof.x.tolist(), prof.y.tolist()),
        metadata=prof.metadata | {"model": cfg.model().kind, "left_size": cfg.left_size},
    )
    return {"states": int(eig.k)}


def _task_sweep(ctx: RunContext) -> dict:
    cfg = ctx.cfg
    model = cfg.model()
    mode, lengths, n_sites, blocks, bond = cfg.sweep
    if mode == "length":
        prof = sweep_ground_state({model.kind: model}, lengths, bond_length=bond,
                                  tol=cfg.tol, seed=cfg.seed)[model.kind]
    else:
        prof = sweep_block_size(model, n_sites=n_sites, blocks=blocks, bond_length=bond,
                                tol=cfg.tol, seed=cfg.seed)
    ctx.write_csv(
        f"sweep_{mode}_{model.kind}.csv",
        ["x", "y"],
        zip(prof.x.tolist(), prof.y.tolist()),
        metadata=prof.metadata,
    )
    return {"points": len(prof.x)}


def _task_dos(ctx: RunContext) -> dict:
    cfg = ctx.cfg
    eig, basis, cut = _dense_states(cfg)
    hist = dos_histogram(eig.values, bin_width=cfg.bin_width)
    ctx.write_csv(
        "dos.csv",
        ["energy", "count"],
        zip(hist.x.tolist(), hist.y.tolist()),
        metadata=hist.metadata,
    )
    comp = entropy_vs_logdos(eig, basis, cut, bin_width=cfg.bin_width)
    ctx.write_csv(
        "entropy_vs_dos.csv",
        ["energy", "mean_entropy", "log2_dos"],
        zip(comp.energy.tolist(), comp.mean_entropy.tolist(), comp.log2_dos.tolist()),
        metadata={"spearman": comp.spearman, "bin_width": cfg.bin_width, "model": cfg.model().kind},
    )
    return {"spearman": comp.spearman}


_TASK_HANDLERS = {
    "solve": _task_solve,
    "entangle": _task_entangle,
    "sector-table": _task_sector_table,
    "histogram": _task_histogram,
    "profile": _task_profile,
    "sweep": _task_sweep,
    "dos": _task_dos,
}


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ValueError as exc:  # ConfigError and GeometryError, and any other bad value
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        ctx = RunContext(cfg)
    except OSError as exc:
        print(f"config error: [run] output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        extra = _TASK_HANDLERS[cfg.task](ctx)
    except (ConfigError, GeometryError, ArchiveError, SymmetryError, ValueError) as exc:
        ctx.finish("failed", error=str(exc))
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, SolverError) as exc:
        ctx.finish("failed", error=str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        ctx.finish("failed", error=_OUT_OF_MEMORY)
        print(_OUT_OF_MEMORY, file=sys.stderr)
        return EXIT_NUMERICAL
    ctx.finish("ok", extra=extra)
    print(f"task {cfg.task}: ok ({len(ctx.files)} artifact(s) in {cfg.output})")
    return EXIT_OK


def _verify_checks(arch: Archive, tol: float):
    h = build_model(arch.geometry, arch.model, arch.sector)
    eig = arch.eigenset
    res = np.linalg.norm(h.matrix @ eig.vectors - eig.vectors * eig.values[None, :], axis=0)
    yield ("residuals", bool(np.all(res <= tol)), f"max {res.max():.3e} vs tol {tol:g}")
    gram = eig.vectors.T @ eig.vectors
    dev = float(np.abs(gram - np.eye(eig.k)).max())
    yield ("orthonormality", dev <= 1e-10, f"max deviation {dev:.3e}")
    if eig.labels:
        ok = True
        detail = []
        for i, expect in enumerate(eig.labels):
            try:
                got = format_label(classify(eig.vectors[:, i], h.basis, arch.geometry))
            except SymmetryError as exc:
                got = f"unlabelable ({exc})"
            if got != expect:
                ok = False
            detail.append(f"state {i + 1}: {got} (stored {expect})")
        yield ("labels", ok, "; ".join(detail))


def cmd_verify(args) -> int:
    if args.tol is not None and not 0 < args.tol < np.inf:
        print(f"--tol must be a positive finite number, got {args.tol!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        arch = read_archive(args.archive)
        print(f"PASS checksum: payload intact ({arch.header['payload_bytes']} bytes)")
        tol = args.tol if args.tol is not None else arch.tol
        failed = False
        for name, ok, detail in _verify_checks(arch, tol):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            failed |= not ok
    except ArchiveChecksumError as exc:
        print(f"FAIL checksum: {exc}")
        return EXIT_NUMERICAL
    except ArchiveError as exc:
        print(f"unreadable archive: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print(_OUT_OF_MEMORY, file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_geometry_emit(args) -> int:
    try:
        if args.kind == "chain":
            g = build_chain(args.n_sites, args.bond_length)
        elif args.kind == "icosahedron":
            g = build_icosahedron(args.edge_length)
        else:
            print(f"unknown geometry kind {args.kind!r}", file=sys.stderr)
            return EXIT_CONFIG
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print(_OUT_OF_MEMORY, file=sys.stderr)
        return EXIT_NUMERICAL
    text = format_geometry(g)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_tables_multiplets(args) -> int:
    try:
        counts = multiplet_counts(args.n_sites, args.model, site_spin=args.site_spin)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("S,count")
    for twice_s in sorted(counts):
        s = twice_s // 2 if twice_s % 2 == 0 else twice_s / 2
        print(f"{s},{counts[twice_s]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="edkit", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"edkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a run config")
    runp.add_argument("config")
    runp.set_defaults(fn=cmd_run)

    ver = sub.add_parser("verify", help="re-check an eigenpair archive")
    ver.add_argument("archive")
    ver.add_argument("--tol", type=float, default=None,
                     help="residual tolerance (default: the archive's own)")
    ver.set_defaults(fn=cmd_verify)

    geo = sub.add_parser("geometry", help="geometry utilities")
    geosub = geo.add_subparsers(dest="geometry_command", required=True)
    emit = geosub.add_parser("emit", help="print a geometry in the text format")
    emit.add_argument("kind", choices=["chain", "icosahedron"])
    emit.add_argument("--n-sites", type=int, default=10)
    emit.add_argument("--bond-length", type=float, default=1.397)
    emit.add_argument("--edge-length", type=float, default=1.397)
    emit.add_argument("-o", "--output", default=None)
    emit.set_defaults(fn=cmd_geometry_emit)

    tab = sub.add_parser("tables", help="reference tables")
    tabsub = tab.add_subparsers(dest="tables_command", required=True)
    mult = tabsub.add_parser("multiplets", help="total-spin multiplet counts")
    mult.add_argument("n_sites", type=int)
    mult.add_argument("--model", default="hubbard",
                      choices=["hubbard", "huckel", "ppp", "heisenberg"])
    mult.add_argument("--site-spin", type=float, default=0.5)
    mult.set_defaults(fn=cmd_tables_multiplets)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
