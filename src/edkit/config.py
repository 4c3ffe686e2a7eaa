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
import math
from dataclasses import dataclass
from pathlib import Path

from .analysis import SMOOTHING_MODES, _default_sector
from .basis import Sector, SectorError, check_site_limit, sector_dimension
from .hamiltonian import ModelSpec
from .lattice import Geometry, build_chain, build_icosahedron, half_cut, load_geometry
from .solver import DENSE_CAP_DEFAULT
from .symmetry import SymmetryError, check_block, parse_label

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
            value = float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be a finite number, got {raw!r}")
        return value

    def _get_int(self, section: str, key: str, default=None, required: bool = False):
        raw = self._get(section, key, default=None, required=required)
        if raw is None:
            return default
        try:
            return int(str(raw))
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None

    def _get_ints(self, section: str, key: str, required: bool = False) -> list[int] | None:
        raw = self._get(section, key, required=required)
        if raw is None:
            return None
        try:
            return [int(v) for v in str(raw).split()]
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be integers, got {raw!r}") from None

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
            try:
                return load_geometry(resolved)
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"[geometry] path {resolved} cannot be read ({exc})") from None
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


def _sections_from_ini(path: Path, text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), comment_prefixes=("#",))
    parser.optionxform = str  # keys are case-sensitive (t vs U)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return {name: dict(parser[name]) for name in parser.sections()}


def _sections_from_json(path: Path, text: str) -> dict[str, dict[str, str]]:
    try:
        data = json.loads(text)
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
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read ({exc})") from None
    parse = _sections_from_json if text.lstrip().startswith("{") else _sections_from_ini
    sections = parse(path, text)
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
    solves_target = task == "solve" or (task == "entangle" and not entangle_from_archive)
    needs_solve_blocks = solves_target or task in ("profile", "dos")
    if needs_solve_blocks:
        model = cfg.model()
        geometry = cfg.geometry()
        check_site_limit(geometry.n_sites, model.kind)
        sector = cfg.sector(model)
        dim = sector_dimension(geometry.n_sites, model.kind, sector, site_spin=model.site_spin)
        if dim == 0:
            raise ConfigError(f"sector {sector} is empty on {geometry.n_sites} sites")
    sub = cfg.subspace() if task in ("profile", "dos") else None
    if sub is not None:
        try:
            check_block(geometry, sector, sub["c2"], sub["eh"])
        except SymmetryError as exc:
            raise ConfigError(f"[subspace] {exc}") from None
        spin = sub["spin"]
        if spin is not None and not (spin >= 0 and (2 * spin).is_integer()):
            raise ConfigError(f"[subspace] spin must be a non-negative half-integer, got {spin}")
    if task in ("sector-table", "histogram") or entangle_from_archive:
        cfg.archive_path()
    if task in ("sector-table", "histogram", "entangle", "profile", "dos"):
        left = cfg._get_int("entangle", "left_size", required=True)
        if needs_solve_blocks:
            half_cut(geometry, left)  # GeometryError outside 1..n_sites - 1
    if task in ("profile", "dos"):
        smoothing = cfg._get("profile", "smoothing", default="none")
        if task == "profile" and smoothing not in SMOOTHING_MODES:
            raise ConfigError(f"[profile] smoothing must be one of {SMOOTHING_MODES}, got {smoothing!r}")
        bin_width = cfg._get_float("profile", "bin_width", default=0.5)
        if bin_width <= 0:
            raise ConfigError(f"[profile] bin_width must be positive, got {bin_width}")
    if task == "sweep":
        model = cfg.model()
        mode = cfg._get("sweep", "mode", required=True)
        if mode not in ("length", "block"):
            raise ConfigError(f"[sweep] mode must be 'length' or 'block', got {mode!r}")
        if mode == "length":
            lengths = cfg._get_ints("sweep", "lengths", required=True)
            if any(n % 2 or n < 4 for n in lengths):
                raise ConfigError("[sweep] lengths must be even integers >= 4")
            check_site_limit(max(lengths, default=0), model.kind)
        else:
            n = cfg._get_int("sweep", "n_sites", required=True)
            check_site_limit(n, model.kind)
            outside = [b for b in cfg._get_ints("sweep", "blocks") or () if not 1 <= b < n]
            if outside:
                raise ConfigError(f"[sweep] blocks must be in 1..{n - 1}, got {outside[0]}")
    tgt = cfg.target()
    if tgt["k"] < 1:
        raise ConfigError("[target] k must be at least 1")
    if tgt["tol"] <= 0:
        raise ConfigError("[target] tol must be positive")
    if tgt["seed"] < 0:
        raise ConfigError(f"[target] seed must be non-negative, got {tgt['seed']}")
    if solves_target and tgt["label"]:
        if not model.fermionic:
            raise ConfigError(f"[target] label {tgt['label']} needs a fermionic model, not {model.kind!r}")
        try:
            label = parse_label(tgt["label"])
            want = _default_sector(geometry, model, label.twice_ms_highest)
            check_block(geometry, want, label.c2_parity, label.eh_parity)
        except (SectorError, SymmetryError) as exc:
            raise ConfigError(f"[target] label {tgt['label']} on {geometry.name!r}: {exc}") from None
        if sector != want:
            raise ConfigError(f"[target] label {tgt['label']} is solved in {want}, not in {sector}")
    elif solves_target and tgt["k"] > dim:
        raise ConfigError(f"[target] k = {tgt['k']} exceeds the sector dimension {dim}")
    elif solves_target and tgt["k"] >= dim - 1 and dim > DENSE_CAP_DEFAULT:
        raise ConfigError(
            f"[target] k = {tgt['k']} asks for the full spectrum of a dimension-{dim} "
            f"sector, above the dense cap {DENSE_CAP_DEFAULT}"
        )
