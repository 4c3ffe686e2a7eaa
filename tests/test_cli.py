import dataclasses
import json
import time

import numpy as np
import pytest

from edkit.archive import read_archive, read_header, write_archive
from edkit.cli import main


SOLVE_CFG = """\
[run]
task = solve
output = {out}
[geometry]
kind = chain
n_sites = 2
bond_length = 1.0
[model]
kind = hubbard
t = -1.0
U = 4.0
[sector]
n_electrons = 2
twice_ms = 0
[target]
k = 4
tol = 1e-10
seed = 1
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_solve_writes_archive_with_four_pairs(tmp_path, capsys):
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    arch = read_archive(tmp_path / "out" / "eigenpairs.edarch")
    assert arch.eigenset.k == 4
    root = np.sqrt(32.0)
    assert np.allclose(
        arch.eigenset.values, sorted([(4 - root) / 2, 0, 4, (4 + root) / 2]), atol=1e-10
    )
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert "eigenpairs.edarch" in manifest["files"]


def test_manifest_lists_every_artifact(tmp_path):
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    main(["run", str(cfg)])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    on_disk = {p.name for p in (tmp_path / "out").iterdir()} - {"manifest.json"}
    assert set(manifest["files"]) == on_disk


@pytest.mark.parametrize("label", [None, "1_Ag+"])
def test_solve_manifest_records_matvecs(tmp_path, label):
    # the product count is run telemetry: it reaches manifest.json, but
    # neither the archive nor the CSVs made from it
    sections = {
        "geometry": {"kind": "chain", "n_sites": 6},
        "model": {"kind": "hubbard", "t": -1.0, "U": 4.0},
        "sector": {"n_electrons": 6, "twice_ms": 0},
        "target": {"k": 1, "tol": 1e-10, "seed": 3} | ({"label": label} if label else {}),
    }
    solve = _write(tmp_path, "solve.json", json.dumps(
        sections | {"run": {"task": "solve", "output": str(tmp_path / "out")}}))
    assert main(["run", str(solve)]) == 0
    matvecs = json.loads((tmp_path / "out" / "manifest.json").read_text())["matvecs"]
    assert type(matvecs) is int and matvecs > 0

    path = tmp_path / "out" / "eigenpairs.edarch"
    assert "matvecs" not in read_header(path)
    arch = read_archive(path)
    for count in (0, matvecs):
        copy = tmp_path / f"copy{count}.edarch"
        eig = dataclasses.replace(arch.eigenset, matvecs=count)
        write_archive(copy, eig, arch.geometry, arch.model, arch.sector, tol=arch.tol, seed=arch.seed)
        assert copy.read_bytes() == path.read_bytes()

    direct = _write(tmp_path, "direct.json", json.dumps(
        sections | {"run": {"task": "entangle", "output": str(tmp_path / "direct")},
                    "entangle": {"left_size": 3}}))
    archived = _write(tmp_path, "archived.json", json.dumps(
        {"run": {"task": "entangle", "output": str(tmp_path / "archived")},
         "input": {"archive": str(path)}, "entangle": {"left_size": 3}}))
    assert main(["run", str(direct)]) == 0 and main(["run", str(archived)]) == 0
    for name in ("state1_spectrum.csv", "state1_sectors.csv"):
        assert (tmp_path / "direct" / name).read_bytes() == (tmp_path / "archived" / name).read_bytes()


def test_manifest_config_echo_reproduces_run(tmp_path):
    out1 = tmp_path / "out1"
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=out1))
    main(["run", str(cfg)])
    manifest = json.loads((out1 / "manifest.json").read_text())
    sections = manifest["config"]["sections"]
    sections["run"]["output"] = str(tmp_path / "out2")
    echo = _write(tmp_path, "echo.json", json.dumps(sections))
    assert main(["run", str(echo)]) == 0
    a = (out1 / "eigenpairs.edarch").read_bytes()
    b = (tmp_path / "out2" / "eigenpairs.edarch").read_bytes()
    assert a == b


def test_verify_fresh_archive_passes(tmp_path, capsys):
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    main(["run", str(cfg)])
    code = main(["verify", str(tmp_path / "out" / "eigenpairs.edarch")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS checksum" in out and "PASS residuals" in out and "PASS orthonormality" in out


def test_verify_flipped_byte_fails(tmp_path, capsys):
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    main(["run", str(cfg)])
    path = tmp_path / "out" / "eigenpairs.edarch"
    raw = bytearray(path.read_bytes())
    raw[int(read_header(path)["payload_offset"]) + 5] ^= 0x10
    path.write_bytes(bytes(raw))
    code = main(["verify", str(path)])
    assert code == 3
    assert "FAIL checksum" in capsys.readouterr().out


def test_verify_tolerance_semantics(tmp_path, capsys):
    # archive solved loosely, then verified at a tighter tolerance: the
    # residual check fails while the others keep passing
    import edkit.archive as arc
    from edkit.basis import Sector
    from edkit.hamiltonian import ModelSpec, build_model
    from edkit.lattice import build_chain
    from edkit.solver import EigenSet, dense_spectrum

    g = build_chain(4)
    spec = ModelSpec(kind="hubbard", t=-1.0, U=4.0)
    h = build_model(g, spec, Sector(4, 0))
    eig = dense_spectrum(h)
    v = eig.vectors[:, 0].copy()
    v += 3e-6 * eig.vectors[:, 1]
    v /= np.linalg.norm(v)
    lam = float(v @ (h.matrix @ v))
    res = float(np.linalg.norm(h.matrix @ v - lam * v))
    assert 1e-10 < res < 1e-4
    loose = EigenSet(values=np.array([lam]), vectors=v[:, None], residuals=np.array([res]))
    path = tmp_path / "loose.edarch"
    arc.write_archive(path, loose, g, spec, Sector(4, 0), tol=1e-4, seed=1)

    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    code = main(["verify", str(path), "--tol", "1e-10"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL residuals" in out and "PASS orthonormality" in out


def test_verify_labeled_archive(tmp_path, capsys):
    cfg_text = """\
[run]
task = solve
output = {out}
[geometry]
kind = chain
n_sites = 6
[model]
kind = hubbard
t = -1.0
U = 4.0
[sector]
n_electrons = 6
twice_ms = 0
[target]
label = 1_Bu-
k = 1
"""
    cfg = _write(tmp_path, "lab.cfg", cfg_text.format(out=tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    code = main(["verify", str(tmp_path / "out" / "eigenpairs.edarch")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS labels" in out and "1_Bu-" in out


@pytest.mark.parametrize("target", [{"k": 30}, {"k": 20, "label": "1_Ag+"}])
def test_deep_deflated_solve_exits_0_and_verifies(tmp_path, capsys, target):
    # deflated states past the first dozen once stalled just above tol (exit 3)
    sections = {
        "run": {"task": "solve", "output": str(tmp_path / "out")},
        "geometry": {"kind": "chain", "n_sites": 6},
        "model": {"kind": "hubbard", "t": -1.0, "U": 4.0},
        "sector": {"n_electrons": 6, "twice_ms": 0},
        "target": target,
    }
    assert main(["run", str(_write(tmp_path, "deep.json", json.dumps(sections)))]) == 0
    assert main(["verify", str(tmp_path / "out" / "eigenpairs.edarch")]) == 0
    assert "PASS residuals" in capsys.readouterr().out


def test_rerun_reproduces_byte_identical_csv(tmp_path):
    cfg_text = """\
[run]
task = entangle
output = {out}
[geometry]
kind = chain
n_sites = 6
[model]
kind = hubbard
t = -1.0
U = 4.0
[sector]
n_electrons = 6
twice_ms = 0
[target]
k = 1
[entangle]
left_size = 3
"""
    cfg = _write(tmp_path, "ent.cfg", cfg_text.format(out=tmp_path / "out"))
    main(["run", str(cfg)])
    first = (tmp_path / "out" / "state1_sectors.csv").read_bytes()
    main(["run", str(cfg)])
    second = (tmp_path / "out" / "state1_sectors.csv").read_bytes()
    assert first == second


def test_sector_table_from_archive(tmp_path):
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    main(["run", str(cfg)])
    st = _write(
        tmp_path,
        "st.json",
        json.dumps(
            {
                "run": {"task": "sector-table", "output": str(tmp_path / "st_out")},
                "input": {"archive": str(tmp_path / "out" / "eigenpairs.edarch")},
                "entangle": {"left_size": 1},
            }
        ),
    )
    assert main(["run", str(st)]) == 0
    lines = (tmp_path / "st_out" / "state1_sectors.csv").read_text().splitlines()
    assert lines[1] == "two_ms_left,n_left,partial_entropy"
    assert len(lines) >= 4


def test_invalid_config_exit_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "[run]\ntask = fly\n")
    assert main(["run", str(bad)]) == 2
    bad2 = _write(tmp_path, "bad2.cfg", "[run]\ntask = solve\n[geometry]\nkind = chain\n")
    assert main(["run", str(bad2)]) == 2
    bad3 = _write(
        tmp_path, "bad3.cfg",
        "[run]\ntask = sweep\n[model]\nkind = heisenberg\n[sweep]\nmode = length\nlengths = 4 five\n",
    )
    assert main(["run", str(bad3)]) == 2


NONFINITE_CFG = """\
[run]
task = {task}
output = {out}
[geometry]
kind = chain
n_sites = 4
bond_length = {bond_length}
[model]
kind = ppp
t = -2.4
U = 11.26
[sector]
n_electrons = 4
twice_ms = 0
[entangle]
left_size = 2
[profile]
smoothing = energy_bin
bin_width = {bin_width}
[target]
tol = {tol}
"""


@pytest.mark.parametrize(
    "task, section, key, value",
    [
        ("solve", "geometry", "bond_length", "nan"),
        ("solve", "geometry", "bond_length", "-inf"),
        ("solve", "target", "tol", "nan"),
        ("solve", "target", "tol", "inf"),
        ("profile", "profile", "bin_width", "nan"),
        ("solve", "geometry", "path", "nan"),  # a geometry file with a nan coordinate
    ],
)
def test_non_finite_number_exit_2(tmp_path, capsys, task, section, key, value):
    fields = {"bond_length": "1.397", "tol": "1e-10", "bin_width": "0.5", key: value}
    text = NONFINITE_CFG.format(task=task, out=tmp_path / "out", **fields)
    message = f"[{section}] {key} must be a finite number, got '{value}'"
    if key == "path":
        rows = "".join(f"{i} {x} 0 0\n" for i, x in enumerate(("0", "1.397", value, "4.191"), 1))
        geom = _write(tmp_path, "chain.geom", f"sites 4\n{rows}bonds 3\n1 2\n2 3\n3 4\n")
        text = text.replace("kind = chain\n", f"kind = file\npath = {geom}\n")
        message = "site 3 coordinates must be finite, got [nan, 0.0, 0.0]"
    cfg = _write(tmp_path, "nonfinite.cfg", text)
    assert main(["run", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("task", ["profile", "dos"])
def test_bin_index_overflow_exit_2(tmp_path, capsys, task):
    text = NONFINITE_CFG.format(task=task, out=tmp_path / "out", bond_length="1.397",
                                tol="1e-10", bin_width="1e-300")
    text = text.replace("kind = ppp\nt = -2.4\nU = 11.26", "kind = hubbard\nt = -1.0\nU = 4.0")
    cfg = _write(tmp_path, "overflow.cfg", text)
    assert main(["run", str(cfg)]) == 2
    assert "bin width 1e-300 is too small" in capsys.readouterr().err


def test_entangle_from_archive_needs_no_model_block(tmp_path):
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    main(["run", str(cfg)])
    ent = _write(
        tmp_path,
        "ent.json",
        json.dumps(
            {
                "run": {"task": "entangle", "output": str(tmp_path / "ent_out")},
                "input": {"archive": str(tmp_path / "out" / "eigenpairs.edarch")},
                "entangle": {"left_size": 1, "state": 2},
            }
        ),
    )
    assert main(["run", str(ent)]) == 0
    assert (tmp_path / "ent_out" / "state2_spectrum.csv").exists()


def test_numerical_failure_exit_3(tmp_path, capsys):
    cfg_text = """\
[run]
task = solve
output = {out}
[geometry]
kind = chain
n_sites = 2
[model]
kind = hubbard
t = -1.0
U = 4.0
[sector]
n_electrons = 2
twice_ms = 0
[target]
label = 1_Ag-
"""
    cfg = _write(tmp_path, "empty.cfg", cfg_text.format(out=tmp_path / "out"))
    assert main(["run", str(cfg)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_empty_flip_block_exit_3(tmp_path, capsys):
    # spin 1 picks the spin-flip odd half of the two-site (C2 +1, eh +1)
    # block, which holds only singlets
    text = BLOCK_CFG.format(task="profile", out=tmp_path / "out", geometry="kind = chain\nn_sites = 2",
                            model="hubbard", n_electrons=2, block="[subspace]\nc2 = 1\neh = 1\nspin = 1")
    cfg = _write(tmp_path, "flip.cfg", text.replace("left_size = 2", "left_size = 1"))
    assert main(["run", str(cfg)]) == 3
    message = ("the (C2 1, eh 1) symmetry subspace of sector Sector(n_electrons=2, twice_ms=0) "
               "is empty for total spin 1")
    assert f"numerical failure: {message}" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["error"] == message


@pytest.mark.parametrize("u", [0.0, 1.0, 4.0])
def test_missing_labeled_states_exit_3(tmp_path, capsys, u):
    # the 4-site chain has two 1_Bu+ states; asking for three walks the
    # whole (C2 -1, eh +1, flip +1) block and exits 3 saying so
    sections = {
        "run": {"task": "solve", "output": str(tmp_path / "out")},
        "geometry": {"kind": "chain", "n_sites": 4},
        "model": {"kind": "hubbard", "t": -1.0, "U": u},
        "sector": {"n_electrons": 4, "twice_ms": 0},
        "target": {"label": "1_Bu+", "k": 3, "tol": 1e-10, "seed": 1},
    }
    cfg = _write(tmp_path, "solve.json", json.dumps(sections))
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: found only 2 of 3 states with label 1_Bu+" in err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_partial_marking_on_failure(tmp_path):
    from edkit.cli import RunContext
    from edkit.config import load_config

    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    ctx = RunContext(load_config(cfg))
    ctx.write_csv("half_done.csv", ["a"], [(1.0,)])
    ctx.finish("failed", error="synthetic")
    out = tmp_path / "out"
    assert not (out / "half_done.csv").exists()
    assert (out / "half_done.csv.partial").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["files"] == ["half_done.csv.partial"]


def test_geometry_emit_roundtrip(tmp_path, capsys):
    out = tmp_path / "chain.geom"
    assert main(["geometry", "emit", "chain", "--n-sites", "5", "-o", str(out)]) == 0
    from edkit.lattice import format_geometry, load_geometry

    g = load_geometry(out)
    assert format_geometry(g) == out.read_text(encoding="utf-8")
    assert main(["geometry", "emit", "icosahedron"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# icosahedron\nsites 12\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_geometry_emit_non_finite_exit_2(capsys, value):
    assert main(["geometry", "emit", "chain", "--bond-length", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bond_length must be positive and finite, got {value}" in captured.err


def test_overflowing_chain_exit_2(tmp_path, capsys):
    # 3 sites 1e308 apart end at 2e308: refused with no overflow warning
    message = "bond_length 1e+308 puts the chain's end beyond the float range"
    assert main(["geometry", "emit", "chain", "--n-sites", "3", "--bond-length", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Warning" not in captured.err and message in captured.err
    text = SOLVE_CFG.format(out=tmp_path / "out").replace("n_sites = 2", "n_sites = 3")
    text = text.replace("bond_length = 1.0", "bond_length = 1e308")
    assert main(["run", str(_write(tmp_path, "far.cfg", text))]) == 2
    captured = capsys.readouterr()
    assert "Warning" not in captured.err and f"config error: {message}" in captured.err


def test_tables_multiplets_negative_sites_exit_2(capsys):
    assert main(["tables", "multiplets", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_sites must be non-negative, got -1" in captured.err
    assert main(["tables", "multiplets", "0"]) == 0
    assert capsys.readouterr().out == "S,count\n0,1\n"


def test_tables_multiplets_matches_expected(capsys):
    start = time.perf_counter()
    assert main(["tables", "multiplets", "12"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "S,count"
    got = {int(line.split(",")[0]): int(line.split(",")[1]) for line in out[1:]}
    assert got == {0: 226512, 1: 382239, 2: 196625, 3: 44044, 4: 4212, 5: 143, 6: 1}
    assert elapsed < 1.0


def test_profile_task(tmp_path):
    cfg_text = """\
[run]
task = profile
output = {out}
[geometry]
kind = chain
n_sites = 6
[model]
kind = hubbard
t = -1.0
U = 4.0
[sector]
n_electrons = 6
twice_ms = 0
[entangle]
left_size = 3
[profile]
smoothing = energy_bin
bin_width = 1.0
"""
    cfg = _write(tmp_path, "prof.cfg", cfg_text.format(out=tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "out" / "profile_energy_bin.csv").read_text().splitlines()
    assert lines[0].startswith("# metadata:")
    assert lines[1] == "x,y"


def test_sweep_and_dos_tasks(tmp_path, capsys):
    sweep_text = """\
[run]
task = sweep
output = {out}
[model]
kind = heisenberg
[sweep]
mode = length
lengths = 4 6
"""
    cfg = _write(tmp_path, "sweep.cfg", sweep_text.format(out=tmp_path / "sweep_out"))
    assert main(["run", str(cfg)]) == 0
    dos_text = """\
[run]
task = dos
output = {out}
[geometry]
kind = chain
n_sites = 6
[model]
kind = hubbard
t = -1.0
U = 4.0
[sector]
n_electrons = 6
twice_ms = 0
[subspace]
c2 = 1
eh = 1
spin = 0
[entangle]
left_size = 3
"""
    cfg = _write(tmp_path, "dos.cfg", dos_text.format(out=tmp_path / "dos_out"))
    assert main(["run", str(cfg)]) == 0
    files = {p.name for p in (tmp_path / "dos_out").iterdir()}
    assert {"dos.csv", "entropy_vs_dos.csv", "manifest.json"} <= files
    capsys.readouterr()
    for good, bad in (("c2 = 1", "c2 = 2"), ("eh = 1", "eh = 0"), ("spin = 0", "spin = 0.3")):
        text = dos_text.replace(good, bad).format(out=tmp_path / "bad_out")
        assert main(["run", str(_write(tmp_path, "bad.cfg", text))]) == 2
        assert "[subspace]" in capsys.readouterr().err


def test_subspace_profile_solves_the_configured_sector(tmp_path):
    # [subspace] acts on the [sector] as given, not on the half-filled one
    from edkit.basis import Sector
    from edkit.hamiltonian import ModelSpec, build_model
    from edkit.lattice import build_chain
    from edkit.solver import dense_subspace_spectrum

    cfg_text = """\
[run]
task = profile
output = {out}
[geometry]
kind = chain
n_sites = 6
[model]
kind = hubbard
t = -1.0
U = 4.0
[sector]
n_electrons = 4
twice_ms = 0
[subspace]
c2 = 1
[entangle]
left_size = 3
"""
    cfg = _write(tmp_path, "n4.cfg", cfg_text.format(out=tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    rows = (tmp_path / "out" / "profile_none.csv").read_text().splitlines()[2:]
    h = build_model(build_chain(6), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(4, 0))
    want = dense_subspace_spectrum(h, 1, None).values
    assert [float(row.split(",")[0]) for row in rows] == want.tolist()


def test_icosahedron_inspection_profile(tmp_path):
    # spin- and C2-resolved icosahedron profiles are emitted for inspection
    cfg_text = """\
[run]
task = profile
output = {out}
[geometry]
kind = icosahedron
[model]
kind = heisenberg
J = 1.0
site_spin = 0.5
[sector]
twice_ms = 0
[subspace]
c2 = 1
spin = 0
[entangle]
left_size = 6
[profile]
smoothing = energy_bin
bin_width = 0.5
"""
    cfg = _write(tmp_path, "ico.cfg", cfg_text.format(out=tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "out" / "profile_energy_bin.csv").read_text().splitlines()
    assert len(lines) > 3


def test_histogram_task(tmp_path):
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    main(["run", str(cfg)])
    hist = _write(
        tmp_path,
        "hist.json",
        json.dumps(
            {
                "run": {"task": "histogram", "output": str(tmp_path / "hist_out")},
                "input": {"archive": str(tmp_path / "out" / "eigenpairs.edarch")},
                "entangle": {"left_size": 1},
            }
        ),
    )
    assert main(["run", str(hist)]) == 0
    lines = (tmp_path / "hist_out" / "state1_decades.csv").read_text().splitlines()
    assert lines[1] == "decade,count"
    assert len(lines) == 2 + 16


def test_site_limits_exit_2(tmp_path, capsys):
    fermion = SOLVE_CFG.format(out=tmp_path / "out").replace("n_sites = 2", "n_sites = 70")
    fermion = fermion.replace("n_electrons = 2", "n_electrons = 70")
    assert main(["run", str(_write(tmp_path, "fermion.cfg", fermion))]) == 2
    assert "70 sites exceed the 64-site limit of fermion models" in capsys.readouterr().err
    spin = "[run]\ntask = solve\n[geometry]\nkind = chain\nn_sites = 40\n[model]\nkind = heisenberg\n"
    assert main(["run", str(_write(tmp_path, "spin.cfg", spin))]) == 2
    assert "40 sites exceed the 32-site limit of spin models" in capsys.readouterr().err
    sweep = (
        "[run]\ntask = sweep\n[model]\nkind = heisenberg\n"
        "[sweep]\nmode = block\nn_sites = 34\n"
    )
    assert main(["run", str(_write(tmp_path, "sweep.cfg", sweep))]) == 2
    assert "34 sites exceed the 32-site limit" in capsys.readouterr().err


def test_memory_error_exit_3(tmp_path, capsys, monkeypatch):
    import edkit.cli as cli

    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_model", exhausted)
    assert main(["run", str(cfg)]) == 3
    assert "out of memory" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert main(["verify", str(tmp_path / "out" / "eigenpairs.edarch")]) == 3
    assert "out of memory" in capsys.readouterr().err


def test_oversized_chain_refused_before_it_is_built(tmp_path, capsys, monkeypatch):
    # a chain's n x n distances are built with it: 200,000 sites ask for
    # 894 GiB, so the site limit is checked on n_sites first
    import edkit.config

    def never(*args, **kwargs):
        raise AssertionError("the chain was built before its site count was checked")

    monkeypatch.setattr(edkit.config, "build_chain", never)
    text = SOLVE_CFG.format(out=tmp_path / "out").replace("n_sites = 2", "n_sites = 65")
    text = text.replace("n_electrons = 2", "n_electrons = 65")
    assert main(["run", str(_write(tmp_path, "chain.cfg", text))]) == 2
    assert "65 sites exceed the 64-site limit of fermion models" in capsys.readouterr().err


def test_geometry_file_out_of_memory_exit_3(tmp_path, capsys, monkeypatch):
    # a geometry file's sites are only counted once it is read, and reading
    # it builds their distances
    import edkit.config

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(edkit.config, "load_geometry", exhausted)
    geom = _write(tmp_path, "chain.geom", "# chain\nsites 2\n1 0 0 0\n2 1.397 0 0\nbonds 1\n1 2\n")
    text = SOLVE_CFG.format(out=tmp_path / "out").replace(
        "kind = chain\nn_sites = 2\n", f"kind = file\npath = {geom}\n"
    )
    assert main(["run", str(_write(tmp_path, "file.cfg", text))]) == 3
    captured = capsys.readouterr()
    assert "out of memory" in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


HUB4_CFG = """\
[run]
task = {task}
output = {out}
[geometry]
kind = chain
n_sites = 4
[model]
kind = hubbard
t = -1.0
U = 4.0
[sector]
n_electrons = 4
twice_ms = 0
[entangle]
left_size = {left_size}
[profile]
smoothing = {smoothing}
bin_width = {bin_width}
"""


def test_dos_bin_limit_exit_2(tmp_path, capsys):
    text = HUB4_CFG.format(task="dos", out=tmp_path / "out", left_size=2,
                           smoothing="none", bin_width="1e-5")
    assert main(["run", str(_write(tmp_path, "dos.cfg", text))]) == 2
    assert "DoS bins, more than 1000000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, field, value, message",
    [
        ("profile", "smoothing", "bogus", "[profile] smoothing must be one of"),
        ("profile", "bin_width", "-1", "[profile] bin_width must be positive, got -1.0"),
        ("dos", "bin_width", "0", "[profile] bin_width must be positive, got 0.0"),
        ("profile", "left_size", "9", "left_size must be in 1..3, got 9"),
        ("dos", "left_size", "0", "left_size must be in 1..3, got 0"),
        ("entangle", "left_size", "4", "left_size must be in 1..3, got 4"),
    ],
)
def test_settings_rejected_before_build(tmp_path, capsys, monkeypatch, task, field, value, message):
    import edkit.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the Hamiltonian was built before the config was checked")

    monkeypatch.setattr(cli, "build_model", never)
    fields = {"left_size": "2", "smoothing": "none", "bin_width": "0.5", field: value}
    text = HUB4_CFG.format(task=task, out=tmp_path / "out", **fields)
    assert main(["run", str(_write(tmp_path, "early.cfg", text))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("count", ["-1", "0", "99999999999", "5"])
def test_geometry_site_count_exit_2(tmp_path, capsys, count):
    geom = _write(tmp_path, "chain.geom",
                  f"# chain\nsites {count}\n1 0 0 0\n2 1.397 0 0\nbonds 1\n1 2\n")
    text = SOLVE_CFG.format(out=tmp_path / "out").replace(
        "kind = chain\nn_sites = 2\n", f"kind = file\npath = {geom}\n"
    )
    assert main(["run", str(_write(tmp_path, "file.cfg", text))]) == 2
    assert f"line 2: site count {count} must be in 1..4" in capsys.readouterr().err


def test_geometry_emit_200000_site_chain_exit_0(tmp_path, capsys):
    out = tmp_path / "chain.geom"
    assert main(["geometry", "emit", "chain", "--n-sites", "200000", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[:3] == ["# chain-200000", "sites 200000", "1 0 0 0"]
    assert lines[-1] == "199999 200000" and len(lines) == 3 + 200000 + 199999


def test_geometry_emit_memory_error_exit_3(capsys, monkeypatch):
    import edkit.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_chain", exhausted)
    assert main(["geometry", "emit", "chain", "--n-sites", "200000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out of memory" in captured.err


TARGET_CFG = """\
[run]
task = {task}
output = {out}
[geometry]
kind = chain
n_sites = {n_sites}
[model]
kind = {model}
t = -1.0
U = 4.0
[sector]
n_electrons = {n_electrons}
twice_ms = {twice_ms}
[entangle]
left_size = 2
[target]
{target}
"""


def _exits_2_before_build(tmp_path, capsys, monkeypatch, message, **fields):
    import edkit.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the Hamiltonian was built before the config was checked")

    monkeypatch.setattr(cli, "build_model", never)
    text = TARGET_CFG.format(out=tmp_path / "out", **fields)
    assert main(["run", str(_write(tmp_path, "early.cfg", text))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, model, n_sites, n_electrons, twice_ms, target, message",
    [
        ("solve", "hubbard", 4, 4, 0, "label = 1_Zz+", "cannot parse symmetry label '1_Zz+'"),
        ("solve", "heisenberg", 4, 4, 0, "label = 1_Ag+",
         "label 1_Ag+ needs a fermionic model, not 'heisenberg'"),
        ("solve", "hubbard", 6, 4, 0, "label = 1_Ag+",
         "is solved in Sector(n_electrons=6, twice_ms=0), not in Sector(n_electrons=4, twice_ms=0)"),
        ("entangle", "hubbard", 6, 6, 0, "label = 3_Bu+",
         "is solved in Sector(n_electrons=6, twice_ms=2), not in Sector(n_electrons=6, twice_ms=0)"),
        ("solve", "hubbard", 4, 4, 0, "seed = -1", "[target] seed must be non-negative, got -1"),
        ("solve", "hubbard", 4, 4, 0, "k = 37", "[target] k = 37 exceeds the sector dimension 36"),
        ("solve", "hubbard", 10, 10, 0, "k = 63503",
         "[target] k = 63503 asks for the full spectrum of a dimension-63504 sector, "
         "above the dense cap 20000"),
    ],
    ids=["unparsed-label", "spin-model-label", "label-electrons", "label-ms", "seed", "k",
         "k-above-dense-cap"],
)
def test_target_rejected_before_build(tmp_path, capsys, monkeypatch, task, model, n_sites,
                                      n_electrons, twice_ms, target, message):
    _exits_2_before_build(tmp_path, capsys, monkeypatch, message, task=task, model=model,
                          n_sites=n_sites, n_electrons=n_electrons, twice_ms=twice_ms,
                          target=target)


@pytest.mark.parametrize(
    "model, n_sites, n_electrons, twice_ms, message",
    [
        ("hubbard", 2, 4, 2, "sector Sector(n_electrons=4, twice_ms=2) is empty on 2 sites"),
        ("heisenberg", 3, 3, 0, "sector Sector(n_electrons=None, twice_ms=0) is empty on 3 sites"),
    ],
    ids=["hubbard-overfull-channel", "heisenberg-parity"],
)
def test_empty_sector_rejected_before_build(tmp_path, capsys, monkeypatch, model, n_sites,
                                            n_electrons, twice_ms, message):
    _exits_2_before_build(tmp_path, capsys, monkeypatch, message, task="solve", model=model,
                          n_sites=n_sites, n_electrons=n_electrons, twice_ms=twice_ms,
                          target="k = 1")


def _never_build(monkeypatch):
    import edkit.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the Hamiltonian was built before the config was checked")

    monkeypatch.setattr(cli, "build_model", never)


# four sites with unequal bond lengths: alternant, but no two-fold symmetry
LOPSIDED_GEOM = "# lopsided\nsites 4\n1 0 0 0\n2 1.2 0 0\n3 2.6 0 0\n4 4.1 0 0\nbonds 3\n1 2\n2 3\n3 4\n"

BLOCK_CFG = """\
[run]
task = {task}
output = {out}
[geometry]
{geometry}
[model]
kind = {model}
t = -1.0
U = 4.0
[sector]
n_electrons = {n_electrons}
twice_ms = 0
[entangle]
left_size = 2
{block}
"""


@pytest.mark.parametrize(
    "task, geometry, model, n_electrons, block, message",
    [
        ("dos", "kind = chain\nn_sites = 6", "heisenberg", 6, "[subspace]\neh = 1",
         "[subspace] electron-hole conjugation is only defined for fermionic bases"),
        ("profile", "kind = chain\nn_sites = 6", "hubbard", 4, "[subspace]\neh = 1",
         "[subspace] electron-hole conjugation needs half filling (N_e = 6), got N_e = 4"),
        ("profile", "kind = file\npath = {geom}", "hubbard", 4, "[subspace]\nc2 = 1",
         "[subspace] geometry 'lopsided' declares no two-fold symmetry"),
        ("solve", "kind = file\npath = {geom}", "hubbard", 4, "[target]\nlabel = 1_Ag+",
         "[target] label 1_Ag+ on 'lopsided': geometry 'lopsided' declares no two-fold symmetry"),
        ("solve", "kind = icosahedron", "hubbard", 12, "[target]\nlabel = 1_Ag+",
         "[target] label 1_Ag+ on 'icosahedron': electron-hole symmetry needs an alternant "
         "bond graph"),
    ],
    ids=["eh-spin-model", "eh-away-from-half-filling", "c2-undeclared", "label-c2-undeclared",
         "label-not-alternant"],
)
def test_block_rejected_before_build(tmp_path, capsys, monkeypatch, task, geometry, model,
                                     n_electrons, block, message):
    _never_build(monkeypatch)
    geom = _write(tmp_path, "lopsided.geom", LOPSIDED_GEOM)
    text = BLOCK_CFG.format(task=task, out=tmp_path / "out", geometry=geometry.format(geom=geom),
                            model=model, n_electrons=n_electrons, block=block)
    assert main(["run", str(_write(tmp_path, "block.cfg", text))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, twice_ms, block",
    [("profile", 0, "[subspace]\neh = 1"), ("dos", 0, "[subspace]\nc2 = 1\neh = -1\nspin = 0"),
     ("solve", 0, "[target]\nlabel = 1_Ag+"), ("entangle", 0, "[target]\nlabel = 1_Bu-"),
     ("solve", 2, "[target]\nlabel = 3_Bu+")],
    ids=["subspace-eh", "subspace-spin", "label-1Ag+", "entangle-1Bu-", "label-3Bu+"],
)
def test_eh_of_ppp_away_from_z_1_exit_2(tmp_path, capsys, monkeypatch, task, twice_ms, block):
    # eh commutes with the PPP H only at z = 1: every eh block is refused at load
    _never_build(monkeypatch)
    text = BLOCK_CFG.format(task=task, out=tmp_path / "out", geometry="kind = chain\nn_sites = 6",
                            model="ppp", n_electrons=6, block=block)
    text = text.replace("U = 4.0\n", "U = 4.0\nz = 0.5\n")
    text = text.replace("twice_ms = 0", f"twice_ms = {twice_ms}")
    assert main(["run", str(_write(tmp_path, "ppp.cfg", text))]) == 2
    err = capsys.readouterr().err
    assert "electron-hole symmetry needs z = 1 in the PPP model, got z = 0.5" in err
    section = "[subspace]" if task in ("profile", "dos") else "[target] label"
    assert err.startswith(f"config error: {section}")
    assert not (tmp_path / "out").exists()  # load stopped it: no manifest


def test_ppp_z_1_keeps_its_eh_blocks(tmp_path):
    # z = 1 given is the default; z = 0.5 without eh keeps its C2 block
    outputs = []
    runs = (("default", "", "eh = 1\n"), ("explicit", "z = 1\n", "eh = 1\n"), ("c2-only", "z = 0.5\n", ""))
    for name, z, eh in runs:
        text = BLOCK_CFG.format(task="dos", out=tmp_path / name, geometry="kind = chain\nn_sites = 6",
                                model="ppp", n_electrons=6, block=f"[subspace]\nc2 = 1\n{eh}spin = 0")
        text = text.replace("U = 4.0\n", f"U = 4.0\n{z}")
        assert main(["run", str(_write(tmp_path, f"{name}.cfg", text))]) == 0
        outputs.append(sorted(p.read_bytes() for p in (tmp_path / name).glob("*.csv")))
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "twice_ms, spin, message",
    [
        (2, "0", "[subspace] spin = 0.0 does not occur in Sector(n_electrons=6, twice_ms=2) on 6 "
         "sites: it needs |2M_S| <= 2S <= 6 and 2S - 2M_S even"),
        (0, "0.5", "[subspace] spin = 0.5 does not occur in Sector(n_electrons=6, twice_ms=0)"),
        (0, "3.5", "[subspace] spin = 3.5 does not occur in Sector(n_electrons=6, twice_ms=0)"),
        (2, "4", "[subspace] spin = 4.0 does not occur in Sector(n_electrons=6, twice_ms=2)"),
    ],
    ids=["below-ms", "wrong-parity", "wrong-parity-above-max", "above-max"],
)
def test_subspace_spin_checked_against_sector(tmp_path, capsys, monkeypatch, twice_ms, spin,
                                              message):
    _never_build(monkeypatch)
    text = BLOCK_CFG.format(task="profile", out=tmp_path / "out",
                            geometry="kind = chain\nn_sites = 6", model="hubbard", n_electrons=6,
                            block=f"[subspace]\nc2 = 1\nspin = {spin}")
    text = text.replace("twice_ms = 0", f"twice_ms = {twice_ms}")
    assert main(["run", str(_write(tmp_path, "spin.cfg", text))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("task", ["profile", "dos"])
def test_full_spectrum_above_dense_cap_exit_2(tmp_path, capsys, monkeypatch, task):
    _exits_2_before_build(tmp_path, capsys, monkeypatch,
                          "the full spectrum of the dimension-63504 sector is above the dense cap "
                          "20000; choose a symmetry block with [subspace]",
                          task=task, model="hubbard", n_sites=10, n_electrons=10, twice_ms=0,
                          target="k = 1")


@pytest.mark.parametrize(
    "geometry, n_electrons, label, message",
    [
        ("kind = chain\nn_sites = 5", 5, "3_Bu+",
         "[target] label 3_Bu+ on 'chain-5': twice_ms=2 impossible for n_electrons=5"),
        ("kind = file\npath = {geom}", 3, "1_Ag+",
         "[target] label 1_Ag+ on 'three sites': twice_ms=0 impossible for n_electrons=3"),
    ],
    ids=["3Bu+-on-5-sites", "1Ag+-on-3-site-file"],
)
def test_label_without_its_sector_exit_2(tmp_path, capsys, monkeypatch, geometry, n_electrons,
                                         label, message):
    _never_build(monkeypatch)
    geom = _write(tmp_path, "three.geom",
                  "# three sites\nsites 3\n1 0 0 0\n2 1.397 0 0\n3 2.794 0 0\nbonds 2\n1 2\n2 3\n")
    text = BLOCK_CFG.format(task="solve", out=tmp_path / "out", geometry=geometry.format(geom=geom),
                            model="hubbard", n_electrons=n_electrons, block=f"[target]\nlabel = {label}")
    text = text.replace("twice_ms = 0", "twice_ms = 1")  # the odd electron count's lowest |M_S|
    assert main(["run", str(_write(tmp_path, "label.cfg", text))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "case, message",
    [
        ("config-not-utf8", "config file {cfg} cannot be read"),
        ("config-is-directory", "config file {cfg} cannot be read"),
        ("geometry-not-utf8", "[geometry] path {geom} cannot be read"),
        ("geometry-is-directory", "[geometry] path {geom} cannot be read"),
        ("output-is-file", "[run] output: "),
    ],
    ids=["config-not-utf8", "config-is-directory", "geometry-not-utf8", "geometry-is-directory",
         "output-is-file"],
)
def test_unusable_run_paths_exit_2(tmp_path, capsys, case, message):
    cfg, geom, out = tmp_path / "run.cfg", tmp_path / "chain.geom", tmp_path / "out"
    cfg.write_text(SOLVE_CFG.format(out=out).replace("kind = chain\nn_sites = 2\n",
                                                     f"kind = file\npath = {geom}\n"))
    geom.write_text("sites 2\n1 0 0 0\n2 1.0 0 0\nbonds 1\n1 2\n")
    target = {"config": cfg, "geometry": geom, "output": out}[case.split("-")[0]]
    if case.endswith("not-utf8"):
        target.write_bytes(b"\xff" + target.read_bytes())
    elif case.endswith("is-directory"):
        target.unlink()
        target.mkdir()
    else:
        target.write_text("a file, not a directory\n")
    assert main(["run", str(cfg)]) == 2
    assert message.format(cfg=cfg, geom=geom) in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, message",
    [("[sweep]\nmode = block\nn_sites = 6\nblocks = 1 x", "[sweep] blocks must be integers, got '1 x'"),
     ("[sweep]\nmode = block\nn_sites = 6\nblocks = 0 9", "[sweep] blocks must be in 1..5, got 0"),
     ("[sweep]\nmode = block\nn_sites = 1", "[sweep] n_sites must be at least 2, got 1"),
     ("[geometry]\nbond_length = 0\n[sweep]\nmode = block\nn_sites = 6",
      "[geometry] bond_length must be positive, got 0.0"),
     ("[geometry]\nbond_length = -1\n[sweep]\nmode = length\nlengths = 4 6",
      "[geometry] bond_length must be positive, got -1.0"),
     ("[sweep]\nmode = length\nlengths =",
      "[sweep] lengths must be one or more even integers >= 4, got []")],
    ids=["not-integers", "out-of-range", "one-site", "zero-bond-length", "negative-bond-length",
         "empty-lengths"],
)
def test_sweep_blocks_checked_at_load(tmp_path, capsys, monkeypatch, keys, message):
    import edkit.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the sweep ran before the config was checked")

    monkeypatch.setattr(cli, "sweep_block_size", never)
    monkeypatch.setattr(cli, "sweep_ground_state", never)
    text = f"[run]\ntask = sweep\noutput = {tmp_path / 'out'}\n[model]\nkind = heisenberg\n{keys}\n"
    assert main(["run", str(_write(tmp_path, "sweep.cfg", text))]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # load stopped it: no manifest


@pytest.mark.parametrize(
    "task, geometry, target, message",
    [("profile", "kind = chain\nn_sites = 8\nbond_length = 0", "",
      "[geometry] bond_length must be positive, got 0.0"),
     ("solve", "kind = chain\nn_sites = 8\nbond_length = -1", "",
      "[geometry] bond_length must be positive, got -1.0"),
     ("solve", "kind = icosahedron\nedge_length = 0", "", "[geometry] edge_length must be positive, got 0.0"),
     ("solve", "kind = chain\nn_sites = 8", "tol = 0", "[target] tol must be positive, got 0.0")],
    ids=["chain-zero-bond-length", "chain-negative-bond-length", "icosahedron-zero-edge-length",
         "zero-tol"],
)
def test_positive_keys_checked_at_load(tmp_path, capsys, monkeypatch, task, geometry, target, message):
    _never_build(monkeypatch)
    text = (f"[run]\ntask = {task}\noutput = {tmp_path / 'out'}\n[geometry]\n{geometry}\n"
            f"[model]\nkind = heisenberg\n[sector]\ntwice_ms = 0\n[entangle]\nleft_size = 4\n"
            f"[target]\n{target}\n")
    assert main(["run", str(_write(tmp_path, "positive.cfg", text))]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # load stopped it: no manifest


def test_subspace_above_dense_cap_exit_3(tmp_path, capsys, monkeypatch):
    # the dense cap is checked on the block's dimension once the block is
    # built: the 8-site (C2 +1, eh +1) block holds 1,269 states
    import edkit.solver

    monkeypatch.setattr(edkit.solver, "DENSE_CAP_DEFAULT", 1000)
    text = BLOCK_CFG.format(task="profile", out=tmp_path / "out", geometry="kind = chain\nn_sites = 8",
                            model="hubbard", n_electrons=8, block="[subspace]\nc2 = 1\neh = 1")
    assert main(["run", str(_write(tmp_path, "cap.cfg", text))]) == 3
    message = "subspace dimension 1269 exceeds the dense cap 1000"
    assert f"numerical failure: {message}" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["error"] == message


@pytest.mark.parametrize(
    "state, message",
    [("0", "[entangle] state must be in 1..4, got 0"),
     ("5", "[entangle] state must be in 1..4, got 5"),
     ("x", "[entangle] state must be an integer, got 'x'")],
    ids=["zero", "above-k", "not-an-integer"],
)
@pytest.mark.parametrize("task", ["sector-table", "histogram", "entangle"])
def test_archive_state_outside_1_to_k_exit_2(tmp_path, capsys, task, state, message):
    solve = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    assert main(["run", str(solve)]) == 0  # an archive of k = 4 states
    text = (f"[run]\ntask = {task}\noutput = {tmp_path / 'state_out'}\n"
            f"[input]\narchive = {tmp_path / 'out' / 'eigenpairs.edarch'}\n"
            f"[entangle]\nleft_size = 1\nstate = {state}\n")
    capsys.readouterr()
    assert main(["run", str(_write(tmp_path, "state.cfg", text))]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "state_out").exists()  # load stopped it: no manifest


@pytest.mark.parametrize("u", ["0", "-3"])
def test_ppp_needs_positive_u(tmp_path, capsys, monkeypatch, u):
    # the Ohno potential needs U_i + U_j > 0: U = 0 ended in a
    # ZeroDivisionError traceback, and U = -3 ran with a potential that
    # ohno_potential itself rejects
    _never_build(monkeypatch)
    text = TARGET_CFG.format(task="solve", out=tmp_path / "out", n_sites=4, model="ppp",
                             n_electrons=4, twice_ms=0, target="k = 1")
    assert main(["run", str(_write(tmp_path, "ppp.cfg", text.replace("U = 4.0", f"U = {u}")))]) == 2
    assert f"config error: U must be positive for the PPP model, got {float(u)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task", ["sector-table", "histogram", "entangle"])
def test_archive_tasks_read_no_target(tmp_path, task):
    # a run that draws no start vector reads no [target] key and records no seed
    solve = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    assert main(["run", str(solve)]) == 0
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["seed"] == 1
    text = (f"[run]\ntask = {task}\noutput = {tmp_path / 'task_out'}\n"
            f"[input]\narchive = {tmp_path / 'out' / 'eigenpairs.edarch'}\n"
            f"[entangle]\nleft_size = 1\n[target]\nk = 0\ntol = -1\nseed = 9\n")
    assert main(["run", str(_write(tmp_path, "task.cfg", text))]) == 0
    assert json.loads((tmp_path / "task_out" / "manifest.json").read_text())["seed"] is None


@pytest.mark.parametrize("left_size", ["0", "2"])
@pytest.mark.parametrize("task", ["sector-table", "histogram", "entangle"])
def test_archive_left_size_checked_at_load(tmp_path, capsys, monkeypatch, task, left_size):
    # the site count comes from the archive's header: no payload is read and
    # no manifest is written
    import edkit.cli as cli

    solve = _write(tmp_path, "solve.cfg", SOLVE_CFG.format(out=tmp_path / "out"))
    assert main(["run", str(solve)]) == 0  # a 2-site archive
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("the archive was read before the config was checked")

    monkeypatch.setattr(cli, "read_archive", never)
    text = (f"[run]\ntask = {task}\noutput = {tmp_path / 'task_out'}\n"
            f"[input]\narchive = {tmp_path / 'out' / 'eigenpairs.edarch'}\n"
            f"[entangle]\nleft_size = {left_size}\n")
    assert main(["run", str(_write(tmp_path, "task.cfg", text))]) == 2
    assert (f"config error: [entangle] left_size must be in 1..1, got {left_size}"
            in capsys.readouterr().err)
    assert not (tmp_path / "task_out").exists()
