"""The benchmark workloads.

Each workload has three parts:

* `setup` runs in a fresh process right after `import edkit` and loads the
  configs and geometries; it is what `setup_s` measures and stops before the
  first basis or Hamiltonian call.
* `iterate` is one closed-loop iteration, timed as `wall_s`. It records one
  operation per CLI command or solve.
* `check` compares the outputs with their section of `reference.json` (one
  operation per check) and returns the fingerprint the determinism guard
  compares.

Two workloads are run: `lanczos_solves` (the 12-site ground state through
the CLI, then the six labeled 10-site states) exercises the Lanczos solver,
and `subspace_profiles` bypasses it.

The seed reaches edkit only as the `seed` of every solve, so only the Lanczos
start vectors depend on it. Every edkit call goes through a module attribute
(`edkit.analysis.labeled_state`, not an imported name) so the traced run's
rebinding sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import traceback
from pathlib import Path


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:32]


class Ops:
    """Attempted operations of one iteration: (name, ok, detail)."""

    def __init__(self) -> None:
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append((name, bool(ok), detail))
        return bool(ok)

    def close(self, name: str, got: float | None, want: float, tol: float) -> bool:
        ok = got is not None and abs(got - want) <= tol
        return self.add(name, ok, f"{got!r} vs {want!r} (tol {tol:g})")

    def error(self, name: str, exc: BaseException) -> None:
        self.add(name, False, "".join(traceback.format_exception_only(type(exc), exc)).strip())


def _import_edkit(root: Path):
    import edkit
    import edkit.analysis
    import edkit.cli

    src = (root / "src").resolve()
    if src not in Path(edkit.__file__).resolve().parents:
        raise RuntimeError(f"edkit was imported from {edkit.__file__}, not from {src}")
    return edkit


class Workload:
    """Defaults for a workload with no input files and no outputs on disk."""

    name = ""

    def write_inputs(self, workdir: Path, seed: int) -> None:
        """Write input files before any process starts (not timed)."""

    def reset(self, state: dict) -> None:
        """Remove the previous iteration's outputs (not timed)."""


# --- hubbard12_ground ---------------------------------------------------------

SOLVE_CFG = """\
[run]
task = solve
output = solve_out

[geometry]
kind = chain
n_sites = 12
bond_length = 1.397

[model]
kind = hubbard
t = -1.0
U = 4.0

[sector]
n_electrons = 12
twice_ms = 0

[target]
k = 1
tol = 1e-10
seed = {seed}
"""

ENTANGLE_CFG = """\
[run]
task = entangle
output = entangle_out

[input]
archive = solve_out/eigenpairs.edarch

[entangle]
left_size = 6
"""


class Hubbard12Ground(Workload):
    """12-site half-filled Hubbard chain at U/t = 4, run through the CLI:
    `run` (solve, writes the archive), `run` (entangle from the archive,
    6|6 cut), then `verify`."""

    name = "hubbard12_ground"

    def write_inputs(self, workdir: Path, seed: int) -> None:
        (workdir / "solve.cfg").write_text(SOLVE_CFG.format(seed=seed), encoding="utf-8")
        (workdir / "entangle.cfg").write_text(ENTANGLE_CFG, encoding="utf-8")

    def setup(self, root: Path, workdir: Path, seed: int) -> dict:
        edkit = _import_edkit(root)
        cfg = edkit.config.load_config(workdir / "solve.cfg")
        cfg.geometry()
        cfg.model()
        return {"edkit": edkit, "workdir": workdir}

    def iterate(self, state: dict, seed: int, ops: Ops) -> dict:
        edkit, workdir = state["edkit"], state["workdir"]
        archive = workdir / "solve_out" / "eigenpairs.edarch"
        commands = (
            ("cli run solve", ["run", str(workdir / "solve.cfg")]),
            ("cli run entangle", ["run", str(workdir / "entangle.cfg")]),
            ("cli verify", ["verify", str(archive)]),
        )
        outputs = {}
        for name, argv in commands:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = edkit.cli.main(argv)
            except Exception as exc:  # a traceback out of the CLI is a failed command
                ops.error(name, exc)
                code = None
            else:
                ops.add(name, code == 0, f"exit {code}")
            outputs[name] = out.getvalue()
        return outputs

    def reset(self, state: dict) -> None:
        for sub in ("solve_out", "entangle_out"):
            shutil.rmtree(state["workdir"] / sub, ignore_errors=True)

    def check(self, state: dict, outputs: dict, refs: dict, ops: Ops) -> dict:
        ref = refs[self.name]
        edkit, workdir = state["edkit"], state["workdir"]
        lines = outputs["cli verify"].splitlines()
        passed = {line.split()[1].rstrip(":") for line in lines if line.startswith("PASS ")}
        failed = [line for line in lines if line.startswith("FAIL")]
        want = {"checksum", "residuals", "orthonormality"}
        ops.add("verify PASS lines", want <= passed and not failed,
                f"PASS {sorted(passed)}, FAIL {failed}")
        energy = entropy = None
        try:
            manifest = json.loads((workdir / "solve_out" / "manifest.json").read_text())
            energy = float(manifest["eigenvalues"][0])
            manifest = json.loads((workdir / "entangle_out" / "manifest.json").read_text())
            entropy = float(manifest["total_entropy_bits"])
        except (OSError, KeyError, IndexError, ValueError) as exc:
            ops.error("read manifests", exc)
        ops.close("ground energy", energy, ref["energy"], ref["tol"])
        ops.close("half-cut entropy", entropy, ref["entropy_bits"], ref["tol"])

        fingerprint = {}
        csvs = sorted((workdir / "entangle_out").glob("*.csv"))
        if csvs:
            fingerprint["csv_sha"] = _digest(*(p.read_bytes() for p in csvs))
        archive = workdir / "solve_out" / "eigenpairs.edarch"
        if archive.exists():
            offset = int(edkit.archive.read_header(archive)["payload_offset"])
            fingerprint["archive_payload_sha"] = _digest(archive.read_bytes()[offset:])
        return fingerprint


# --- labeled10_sectors --------------------------------------------------------


class Labeled10Sectors(Workload):
    """1_Ag+, 1_Bu- and 3_Bu+ of the 10-site Hubbard (U=4) and PPP chains,
    solved through `analysis.labeled_state`, each with its 5|5 sector table."""

    name = "labeled10_sectors"

    def setup(self, root: Path, workdir: Path, seed: int) -> dict:
        edkit = _import_edkit(root)
        chain = edkit.lattice.build_chain(10, 1.397)
        return {
            "edkit": edkit,
            "chain": chain,
            "cut": edkit.lattice.half_cut(chain, 5),
            "models": {
                "hubbard": edkit.hamiltonian.ModelSpec(kind="hubbard", t=-1.0, U=4.0),
                "ppp": edkit.hamiltonian.ModelSpec(kind="ppp", t=-2.4, U=11.26),
            },
        }

    STATES = (("hubbard", "1_Ag+"), ("hubbard", "1_Bu-"), ("hubbard", "3_Bu+"),
              ("ppp", "1_Ag+"), ("ppp", "1_Bu-"), ("ppp", "3_Bu+"))

    def iterate(self, state: dict, seed: int, ops: Ops) -> dict:
        edkit = state["edkit"]
        results = {}
        for model, label in self.STATES:
            name = f"solve {model} {label}"
            try:
                eig, basis = edkit.analysis.labeled_state(
                    state["chain"], state["models"][model], label, k=1, tol=1e-10, seed=seed
                )
                spectrum = edkit.entanglement.schmidt_spectrum(eig.vectors[:, 0], basis, state["cut"])
                results[(model, label)] = (float(eig.values[0]), dict(spectrum.sector_entropies()))
            except Exception as exc:  # a failed solve is a failed operation
                ops.error(name, exc)
            else:
                ops.add(name, True)
        return results

    def check(self, state: dict, outputs: dict, refs: dict, ops: Ops) -> dict:
        ref = refs[self.name]
        parts = []
        for entry in ref["states"]:
            model, label = entry["model"], entry["label"]
            energy, table = outputs.get((model, label), (None, {}))
            ops.close(f"{model} {label} energy", energy, entry["energy"], ref["energy_tol"])
            tol = ref["sector_tol"][model]
            for tm, n, want in entry["sectors"]:
                got = table.get((tm, n))
                limit = tol["rel"] * want if want < tol["rel_below"] else tol["abs"]
                ops.close(f"{model} {label} sector ({tm},{n})", got, want, limit)
            parts.append(repr((model, label, energy, sorted(table.items()))).encode())
        return {"results_sha": _digest(*parts)}


# --- subspace_profiles --------------------------------------------------------


class SubspaceProfiles(Workload):
    """Dense symmetry-block spectra with entropy profiles: the 8-site Hubbard
    1Ag+ and 3Bu+ blocks (paper smoothing, entropy vs log DoS, decade
    histograms) and the icosahedron spin-1/2 Heisenberg C2 x spin blocks.
    No Lanczos call."""

    name = "subspace_profiles"

    HUBBARD_BLOCKS = (("hubbard8 1Ag+", 0, 1, 1, 0.0), ("hubbard8 3Bu+", 2, -1, 1, 1.0))
    ICOSAHEDRON_BLOCKS = tuple(
        (f"icosahedron C2{'+' if c2 > 0 else '-'} S={int(s)}", c2, s)
        for c2 in (1, -1) for s in (0.0, 1.0)
    )

    def setup(self, root: Path, workdir: Path, seed: int) -> dict:
        edkit = _import_edkit(root)
        chain = edkit.lattice.build_chain(8, 1.397)
        ico = edkit.lattice.build_icosahedron(1.397)
        return {
            "edkit": edkit,
            "chain": chain,
            "chain_cut": edkit.lattice.half_cut(chain, 4),
            "ico": ico,
            "ico_cut": edkit.lattice.half_cut(ico, 6),
            "hubbard": edkit.hamiltonian.ModelSpec(kind="hubbard", t=-1.0, U=4.0),
            "heisenberg": edkit.hamiltonian.ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5),
        }

    def iterate(self, state: dict, seed: int, ops: Ops) -> dict:
        edkit = state["edkit"]
        analysis, ent = edkit.analysis, edkit.entanglement
        results = {}
        for name, tm, c2, eh, spin in self.HUBBARD_BLOCKS:
            try:
                eig, basis = analysis.subspace_spectrum(
                    state["chain"], state["hubbard"], tm, c2, eh, spin=spin
                )
                cut = state["chain_cut"]
                profile = analysis.entropy_profile(eig, basis, cut, smoothing="paper")
                comp = analysis.entropy_vs_logdos(eig, basis, cut, bin_width=0.5)
                index = edkit.basis.bipartite_factorize(basis, cut)
                mid = 0.5 * (eig.values[0] + eig.values[-1])
                i_mid = int(abs(eig.values - mid).argmin())
                hists = [
                    ent.decade_histogram(ent.schmidt_spectrum(eig.vectors[:, i], basis, index))
                    for i in (0, i_mid, eig.k - 1)
                ]
                results[name] = {
                    "states": eig.k,
                    "spearman": comp.spearman,
                    "digest": [profile.y.tobytes(), comp.mean_entropy.tobytes()]
                    + [h.tobytes() for h in hists],
                }
            except Exception as exc:  # a failed solve is a failed operation
                ops.error(f"solve {name}", exc)
            else:
                ops.add(f"solve {name}", True)
        for name, c2, spin in self.ICOSAHEDRON_BLOCKS:
            try:
                eig, basis = analysis.subspace_spectrum(
                    state["ico"], state["heisenberg"], 0, c2, None, spin=spin
                )
                profile = analysis.entropy_profile(
                    eig, basis, state["ico_cut"], smoothing="energy_bin", bin_width=0.5
                )
                results[name] = {"states": eig.k, "digest": [profile.y.tobytes()]}
            except Exception as exc:  # a failed solve is a failed operation
                ops.error(f"solve {name}", exc)
            else:
                ops.add(f"solve {name}", True)
        return results

    def check(self, state: dict, outputs: dict, refs: dict, ops: Ops) -> dict:
        ref = refs[self.name]
        parts = []
        for name, want in ref["counts"].items():
            got = outputs.get(name, {}).get("states")
            ops.add(f"{name} state count", got == want, f"{got} vs {want}")
            parts.extend(outputs.get(name, {}).get("digest", []))
        for name, *_ in self.HUBBARD_BLOCKS:
            rho = outputs.get(name, {}).get("spearman")
            ok = rho is not None and rho >= ref["spearman_min"]
            ops.add(f"{name} spearman", ok, f"{rho} vs >= {ref['spearman_min']}")
            parts.append(repr(rho).encode())
        return {"results_sha": _digest(*parts)}


class Sequence(Workload):
    """Several workloads run one after the other as one iteration."""

    def __init__(self, name: str, *parts: Workload) -> None:
        self.name = name
        self.parts = parts

    def write_inputs(self, workdir: Path, seed: int) -> None:
        for part in self.parts:
            part.write_inputs(workdir, seed)

    def setup(self, root: Path, workdir: Path, seed: int) -> list:
        return [part.setup(root, workdir, seed) for part in self.parts]

    def reset(self, state: list) -> None:
        for part, sub in zip(self.parts, state):
            part.reset(sub)

    def iterate(self, state: list, seed: int, ops: Ops) -> list:
        return [part.iterate(sub, seed, ops) for part, sub in zip(self.parts, state)]

    def check(self, state: list, outputs: list, refs: dict, ops: Ops) -> dict:
        fingerprint = {}
        for part, sub, out in zip(self.parts, state, outputs):
            fingerprint.update(part.check(sub, out, refs, ops))
        return fingerprint


WORKLOADS = {
    w.name: w
    for w in (Sequence("lanczos_solves", Hubbard12Ground(), Labeled10Sectors()), SubspaceProfiles())
}
