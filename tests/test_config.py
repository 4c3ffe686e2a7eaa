"""A run config is resolved once, at load: the geometry file is read once per
run, the benchmark's setup finds the geometry and model built there, and no
config near the grammar gets a traceback out of `edkit run`."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edkit.config as config
from edkit.cli import main
from edkit.config import TASKS, load_config
from edkit.hamiltonian import ModelSpec
from edkit.lattice import Geometry, build_chain, format_geometry, load_geometry

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

FILE_CFG = """\
[run]
task = {task}
output = {out}
[geometry]
kind = file
path = chain.geom
[model]
kind = hubbard
t = -1.0
U = 4.0
[sector]
n_electrons = 4
twice_ms = 0
[entangle]
left_size = 2
"""


@pytest.mark.parametrize("task", ["solve", "entangle", "profile", "dos"])
def test_geometry_file_read_once_per_run(tmp_path, monkeypatch, task):
    reads = []

    def spy(path):
        reads.append(path)
        return load_geometry(path)

    monkeypatch.setattr(config, "load_geometry", spy)
    (tmp_path / "chain.geom").write_text(format_geometry(build_chain(4)), encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FILE_CFG.format(task=task, out=tmp_path / "out"), encoding="utf-8")
    assert main(["run", str(cfg)]) == 0
    assert reads == [tmp_path / "chain.geom"]


def _workloads() -> dict:
    # executed from source, so no bytecode cache is written into perfbench/
    namespace: dict = {"__name__": "perfbench_workloads"}
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), namespace)
    return namespace


def test_benchmark_config_api(tmp_path):
    # the benchmark's setup loads its solve config and calls geometry() and
    # model(); if that breaks, setup fails and no other test notices
    _workloads()["Hubbard12Ground"]().write_inputs(tmp_path, seed=1)
    cfg = load_config(tmp_path / "solve.cfg")
    assert isinstance(cfg.geometry(), Geometry) and cfg.geometry().n_sites == 12
    assert isinstance(cfg.model(), ModelSpec) and cfg.model().kind == "hubbard"
    assert cfg.geometry() is cfg.geometry() and cfg.model() is cfg.model()


# a valid run of every task on a four-site chain; [input] and [subspace] are
# added by the fuzz
_VALID = {
    "geometry": {"kind": "chain", "n_sites": "4", "bond_length": "1.397", "path": "chain.geom"},
    "model": {"kind": "hubbard", "t": "-1.0", "U": "4.0"},
    "sector": {"n_electrons": "4", "twice_ms": "0"},
    "target": {"k": "2", "tol": "1e-10", "seed": "1"},
    "entangle": {"left_size": "2", "state": "2"},
    "profile": {"smoothing": "energy_bin", "bin_width": "0.5"},
    "sweep": {"mode": "block", "n_sites": "4", "blocks": "1 2", "lengths": "4 6"},
}
# other values of each key, in and out of range (70 sites only to reach the
# site limits); any key may also be dropped or get junk
_OTHER = {
    ("geometry", "kind"): ["file", "ring"], ("geometry", "n_sites"): ["1", "2", "3", "0", "70"],
    ("geometry", "path"): ["missing.geom", "."],
    ("model", "kind"): ["huckel", "ppp", "heisenberg", "bogus"], ("model", "U"): ["0", "40"], ("model", "z"): ["0.5"],
    ("model", "site_spin"): ["0.5", "1", "0.3"],
    ("sector", "n_electrons"): ["2", "3", "5", "9"], ("sector", "twice_ms"): ["1", "2", "-2", "4"],
    ("subspace", "c2"): ["-1", "0"], ("subspace", "eh"): ["1", "-1", "2"],
    ("subspace", "spin"): ["0", "0.5", "1", "2", "3.5", "-0.5"],
    ("target", "label"): ["1_Ag+", "1_Bu-", "3_Bu+", "2_Ag+", "1_Zz+", ""],
    ("target", "k"): ["1", "4", "35", "36", "37", "0"], ("target", "tol"): ["1e-6", "0"],
    ("target", "seed"): ["0", "123456789012345678901234567890"],
    ("entangle", "left_size"): ["1", "3", "0", "4"], ("entangle", "state"): ["1", "4", "0", "5"],
    ("profile", "smoothing"): ["none", "paper", "bogus"],
    ("profile", "bin_width"): ["0.1", "0", "1e-300", "1e-5"],
    ("sweep", "mode"): ["length", "bogus"], ("sweep", "lengths"): ["4", "3", "4 70", ""],
    ("sweep", "n_sites"): ["2", "1", "0", "70"], ("sweep", "blocks"): ["1", "3", "0", "9", "", "1 x"],
    ("input", "archive"): ["missing.edarch", "."], ("run", "task"): ["fly"],
}
_JUNK = ["x", "", "nan", "inf", "-inf", "-1", "2.5", "1e400"]


@st.composite
def _configs(draw):
    """A run config near the grammar, as INI text or as JSON: a valid run of
    any task with up to four keys changed, dropped or set to junk."""
    task = draw(st.sampled_from(TASKS))
    sections = {"run": {"task": task, "output": "out"}} | {k: dict(v) for k, v in _VALID.items()}
    if task in ("sector-table", "histogram") or (task == "entangle" and draw(st.booleans())):
        sections["input"] = {"archive": "archive/eigenpairs.edarch"}
    if task in ("profile", "dos") and draw(st.booleans()):
        sections["subspace"] = {"c2": "1", "eh": "1", "spin": "0"}
    for section, key in draw(st.lists(st.sampled_from(sorted(_OTHER)), max_size=4)):
        value = draw(st.sampled_from([None, *_OTHER[section, key], *_JUNK]))
        if value is None:
            sections.get(section, {}).pop(key, None)
        else:
            sections.setdefault(section, {})[key] = value
    if draw(st.booleans()):
        return json.dumps(sections)
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items())
                   for name, sec in sections.items())


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("run-fuzz")
    (root / "chain.geom").write_text(format_geometry(build_chain(4)), encoding="utf-8")
    solve = root / "solve.json"
    sections = {k: _VALID[k] for k in ("geometry", "model", "sector")} | {"target": {"k": "4"}}
    solve.write_text(json.dumps(sections | {"run": {"task": "solve", "output": "archive"}}),
                     encoding="utf-8")
    assert main(["run", str(solve)]) == 0
    return root


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(text=_configs())
def test_run_config_fuzz_exits_0_2_or_3(fuzz_dir, text):
    path = fuzz_dir / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) in (0, 2, 3)
