"""Run configuration: plain-text key-value sections, with JSON accepted too.

Text grammar (INI style, '#' comments):

    [run]
    task = solve            # solve entangle sector-table histogram profile sweep dos
    output = out_dir
    [geometry]
    kind = chain            # chain | icosahedron | file
    n_sites = 10
    bond_length = 1.397
    [model]
    kind = hubbard          # huckel | hubbard | ppp | heisenberg
    t = -1.0
    U = 4.0
    [sector]
    n_electrons = 10
    twice_ms = 0
    [target]
    label = 1_Ag+
    k = 1
    tol = 1e-10
    seed = 1

A JSON file with the same section names as top-level keys is equivalent.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass
from pathlib import Path

from .basis import Sector, check_site_limit
from .hamiltonian import ModelSpec
from .lattice import Geometry, build_chain, build_icosahedron, load_geometry

__all__ = ["ConfigError", "RunConfig", "load_config", "TASKS"]

TASKS = ("solve", "entangle", "sector-table", "histogram", "profile", "sweep", "dos")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated run description; section dicts keep raw values for echoing."""

    task: str
    output: Path
    sections: dict[str, dict[str, str]]
    path: Path

    def echo(self) -> dict:
        return {"task": self.task, "output": str(self.output), "sections": self.sections}

    # --- typed accessors -------------------------------------------------

    def _get(self, section: str, key: str, default=None, required: bool = False):
        sec = self.sections.get(section, {})
        if key not in sec:
            if required:
                raise ConfigError(f"[{section}] {key} is required for task {self.task!r}")
            return default
        return sec[key]

    def _get_float(self, section: str, key: str, default=None, required: bool = False):
        raw = self._get(section, key, default=None, required=required)
        if raw is None:
            return default
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None

    def _get_int(self, section: str, key: str, default=None, required: bool = False):
        raw = self._get(section, key, default=None, required=required)
        if raw is None:
            return default
        try:
            return int(str(raw))
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None

    def geometry(self) -> Geometry:
        kind = str(self._get("geometry", "kind", required=True)).lower()
        if kind == "chain":
            n = self._get_int("geometry", "n_sites", required=True)
            a = self._get_float("geometry", "bond_length", default=1.397)
            return build_chain(n, a)
        if kind == "icosahedron":
            a = self._get_float("geometry", "edge_length", default=1.397)
            return build_icosahedron(a)
        if kind == "file":
            path = self._get("geometry", "path", required=True)
            resolved = (self.path.parent / path) if not Path(path).is_absolute() else Path(path)
            if not resolved.exists():
                raise ConfigError(f"geometry file {resolved} does not exist")
            return load_geometry(resolved)
        raise ConfigError(f"unknown geometry kind {kind!r}")

    def model(self) -> ModelSpec:
        kind = str(self._get("model", "kind", required=True)).lower()
        kwargs = {"kind": kind}
        for key in ("t", "U", "z", "J", "site_spin"):
            val = self._get_float("model", key)
            if val is not None:
                kwargs[key] = val
        try:
            return ModelSpec(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def sector(self, model: ModelSpec) -> Sector:
        tm = self._get_int("sector", "twice_ms", default=0)
        if model.kind == "heisenberg":
            return Sector(None, tm)
        ne = self._get_int("sector", "n_electrons", required=True)
        try:
            return Sector(ne, tm)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def target(self) -> dict:
        return {
            "label": self._get("target", "label"),
            "k": self._get_int("target", "k", default=1),
            "tol": self._get_float("target", "tol", default=1e-10),
            "seed": self._get_int("target", "seed", default=1),
        }

    def subspace(self) -> dict | None:
        """The symmetry block of a dense task, or None without a [subspace] section."""
        if not self.sections.get("subspace"):
            return None
        return {
            "c2": self._get_int("subspace", "c2", default=1),
            "eh": self._get_int("subspace", "eh"),
            "spin": self._get_float("subspace", "spin"),
        }

    def archive_path(self) -> Path:
        raw = self._get("input", "archive", required=True)
        p = Path(raw)
        if not p.is_absolute():
            p = self.path.parent / p
        if not p.exists():
            raise ConfigError(f"input archive {p} does not exist")
        return p


def _sections_from_ini(path: Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), comment_prefixes=("#",))
    parser.optionxform = str  # keys are case-sensitive (t vs U)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return {name: dict(parser[name]) for name in parser.sections()}


def _sections_from_json(path: Path) -> dict[str, dict[str, str]]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object of sections")
    out: dict[str, dict[str, str]] = {}
    for name, sec in data.items():
        if not isinstance(sec, dict):
            raise ConfigError(f"{path}: section {name!r} must be an object")
        out[name] = {k: str(v) for k, v in sec.items()}
    return out


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    text = path.read_text(encoding="utf-8").lstrip()
    sections = _sections_from_json(path) if text.startswith("{") else _sections_from_ini(path)
    run = sections.get("run", {})
    task = run.get("task")
    if task not in TASKS:
        raise ConfigError(f"[run] task must be one of {TASKS}, got {task!r}")
    output = Path(run.get("output", "edkit-out"))
    if not output.is_absolute():
        output = path.parent / output
    cfg = RunConfig(task=task, output=output, sections=sections, path=path)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    task = cfg.task
    entangle_from_archive = task == "entangle" and bool(
        cfg.sections.get("input", {}).get("archive")
    )
    needs_solve_blocks = task in ("solve", "profile", "dos") or (
        task == "entangle" and not entangle_from_archive
    )
    if needs_solve_blocks:
        model = cfg.model()
        geometry = cfg.geometry()
        check_site_limit(geometry.n_sites, model.kind)
        sector = cfg.sector(model)
        if model.fermionic and sector.n_electrons > 2 * geometry.n_sites:
            raise ConfigError(
                f"{sector.n_electrons} electrons do not fit on {geometry.n_sites} sites"
            )
    sub = cfg.subspace() if task in ("profile", "dos") else None
    if sub is not None:
        if sub["c2"] not in (1, -1) or sub["eh"] not in (1, -1, None):
            raise ConfigError(
                f"[subspace] c2 and eh must be 1 or -1, got c2 = {sub['c2']}, eh = {sub['eh']}"
            )
        spin = sub["spin"]
        if spin is not None and not (spin >= 0 and (2 * spin).is_integer()):
            raise ConfigError(f"[subspace] spin must be a non-negative half-integer, got {spin}")
    if task in ("sector-table", "histogram") or entangle_from_archive:
        cfg.archive_path()
    if task in ("sector-table", "histogram", "entangle", "profile", "dos"):
        cfg._get_int("entangle", "left_size", required=True)
    if task == "sweep":
        model = cfg.model()
        mode = cfg._get("sweep", "mode", required=True)
        if mode not in ("length", "block"):
            raise ConfigError(f"[sweep] mode must be 'length' or 'block', got {mode!r}")
        if mode == "length":
            raw = str(cfg._get("sweep", "lengths", required=True))
            try:
                lengths = [int(v) for v in raw.split()]
            except ValueError:
                raise ConfigError(f"[sweep] lengths must be integers, got {raw!r}") from None
            if any(n % 2 or n < 4 for n in lengths):
                raise ConfigError("[sweep] lengths must be even integers >= 4")
            check_site_limit(max(lengths, default=0), model.kind)
        else:
            check_site_limit(cfg._get_int("sweep", "n_sites", required=True), model.kind)
    tgt = cfg.target()
    if tgt["k"] < 1:
        raise ConfigError("[target] k must be at least 1")
    if tgt["tol"] <= 0:
        raise ConfigError("[target] tol must be positive")
