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

`load_config` reads, converts and checks each key its task uses once, before
any Hamiltonian is built, and builds the geometry (a `[geometry] path` file is
read once) and the model. The tasks read only the frozen `RunConfig` it returns.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .analysis import SMOOTHING_MODES, _default_sector
from .archive import ArchiveError, _check_header, read_header
from .basis import Sector, SectorError, check_site_limit, sector_dimension
from .hamiltonian import ModelSpec
from .lattice import Geometry, build_chain, build_icosahedron, load_geometry
from .solver import DENSE_CAP_DEFAULT
from .symmetry import SymmetryError, SymmetryLabel, check_block, check_model_block, parse_label, spin_occurs

__all__ = ["ConfigError", "RunConfig", "load_config", "TASKS"]

TASKS = ("solve", "entangle", "sector-table", "histogram", "profile", "sweep", "dos")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """A resolved run. A field its task does not use keeps its default, and
    `geometry()` and `model()` return None where the task builds none;
    `sections` keeps the raw values for the manifest echo."""

    task: str
    output: Path
    sections: dict[str, dict[str, str]]
    k: int = 1
    tol: float = 1e-10
    seed: int | None = None  # only where the task draws start vectors
    label: SymmetryLabel | None = None  # only where the task solves its [target]
    sector: Sector | None = None
    subspace: tuple[int, int | None, float | None] | None = None  # (c2, eh, spin)
    archive: Path | None = None  # the [input] archive of a task that reads one
    state: int = 1
    left_size: int | None = None
    smoothing: str = "none"
    bin_width: float = 0.5
    sweep: tuple | None = None  # (mode, lengths, n_sites, blocks, bond_length)
    _geometry: Geometry | None = None
    _model: ModelSpec | None = None

    def geometry(self) -> Geometry | None:
        return self._geometry

    def model(self) -> ModelSpec | None:
        return self._model

    def echo(self) -> dict:
        return {"task": self.task, "output": str(self.output), "sections": self.sections}


class _Keys:
    """Typed reads of the raw sections; a bad value raises ConfigError naming its key."""

    def __init__(self, path: Path, task: str, sections: dict[str, dict[str, str]]) -> None:
        self.path, self.task, self.sections = path, task, sections

    def raw(self, section: str, key: str, default=None, required: bool = False):
        sec = self.sections.get(section, {})
        if required and key not in sec:
            raise ConfigError(f"[{section}] {key} is required for task {self.task!r}")
        return sec.get(key, default)

    def number(self, section: str, key: str, default=None):
        raw = self.raw(section, key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be a finite number, got {raw!r}")
        return value

    def positive(self, section: str, key: str, default: float) -> float:
        value = self.number(section, key, default)
        if value <= 0:
            raise ConfigError(f"[{section}] {key} must be positive, got {value}")
        return value

    def integer(self, section: str, key: str, default=None, required: bool = False):
        raw = self.raw(section, key, required=required)
        try:
            return default if raw is None else int(str(raw))
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None

    def integers(self, section: str, key: str, required: bool = False) -> list[int] | None:
        raw = self.raw(section, key, required=required)
        try:
            return None if raw is None else [int(v) for v in str(raw).split()]
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be integers, got {raw!r}") from None

    def file(self, section: str, key: str) -> Path:
        """A required path; a relative one is taken from the config file's directory."""
        path = Path(self.raw(section, key, required=True))
        return path if path.is_absolute() else self.path.parent / path

    def geometry(self, model: ModelSpec) -> Geometry:
        kind = str(self.raw("geometry", "kind", required=True)).lower()
        if kind == "chain":
            n = self.integer("geometry", "n_sites", required=True)
            check_site_limit(n, model.kind)  # before the chain's n x n distances are built
            return build_chain(n, self.positive("geometry", "bond_length", 1.397))
        if kind == "icosahedron":
            return build_icosahedron(self.positive("geometry", "edge_length", 1.397))
        if kind == "file":
            path = self.file("geometry", "path")
            try:
                return load_geometry(path)
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"[geometry] path {path} cannot be read ({exc})") from None
        raise ConfigError(f"unknown geometry kind {kind!r}")

    def model(self) -> ModelSpec:
        kwargs = {"kind": str(self.raw("model", "kind", required=True)).lower()}
        for key in ("t", "U", "z", "J", "site_spin"):
            val = self.number("model", key)
            if val is not None:
                kwargs[key] = val
        try:
            return ModelSpec(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def sector(self, model: ModelSpec) -> Sector:
        twice_ms = self.integer("sector", "twice_ms", 0)
        if model.kind == "heisenberg":
            return Sector(None, twice_ms)
        n_electrons = self.integer("sector", "n_electrons", required=True)
        try:
            return Sector(n_electrons, twice_ms)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def sweep(self, model: ModelSpec) -> tuple:
        """Length mode sets the lengths, block mode n_sites and blocks; the others are None."""
        mode = self.raw("sweep", "mode", required=True)
        if mode not in ("length", "block"):
            raise ConfigError(f"[sweep] mode must be 'length' or 'block', got {mode!r}")
        lengths = n = blocks = None
        if mode == "length":
            lengths = self.integers("sweep", "lengths", required=True)
            if not lengths or any(size % 2 or size < 4 for size in lengths):
                raise ConfigError(f"[sweep] lengths must be one or more even integers >= 4, got {lengths}")
            check_site_limit(max(lengths), model.kind)
        else:
            n = self.integer("sweep", "n_sites", required=True)
            if n < 2:
                raise ConfigError(f"[sweep] n_sites must be at least 2, got {n}")
            check_site_limit(n, model.kind)
            blocks = self.integers("sweep", "blocks") or None
            outside = [b for b in blocks or () if not 1 <= b < n]
            if outside:
                raise ConfigError(f"[sweep] blocks must be in 1..{n - 1}, got {outside[0]}")
        return mode, lengths, n, blocks, self.positive("geometry", "bond_length", 1.397)


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


def _archive_sites(path: Path) -> tuple[int | None, int | None]:
    """The site count and the state count k in an archive's header, once it
    passes the header check of `read_archive`; None, None otherwise, and
    the task then reports the fault as it reads the archive."""
    try:
        header = read_header(path)
        _check_header(path, header)
        return len(header["geometry"]["coords"]), header["shape"][0]
    except (ArchiveError, KeyError, TypeError):
        return None, None


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
    keys = _Keys(path, task, sections)
    from_archive = task in ("sector-table", "histogram") or (
        task == "entangle" and bool(sections.get("input", {}).get("archive"))
    )
    solves_target = task in ("solve", "entangle") and not from_archive
    dense = task in ("profile", "dos")
    geometry = model = sector = subspace = archive = left = sweep = label = None
    state, smoothing, bin_width = 1, "none", 0.5
    if solves_target or dense:
        model = keys.model()
        geometry = keys.geometry(model)
        check_site_limit(geometry.n_sites, model.kind)
        sector = keys.sector(model)
        dim = sector_dimension(geometry.n_sites, model.kind, sector, site_spin=model.site_spin)
        if dim == 0:
            raise ConfigError(f"sector {sector} is empty on {geometry.n_sites} sites")
    if dense and sections.get("subspace"):
        c2, eh, spin = subspace = (keys.integer("subspace", "c2", 1), keys.integer("subspace", "eh"),
                                   keys.number("subspace", "spin"))
        try:
            check_block(geometry, sector, c2, eh)
            check_model_block(model, eh)
        except SymmetryError as exc:
            raise ConfigError(f"[subspace] {exc}") from None
        if spin is not None:
            if not (spin >= 0 and (2 * spin).is_integer()):
                raise ConfigError(f"[subspace] spin must be a non-negative half-integer, got {spin}")
            n, n_e, twice_s = geometry.n_sites, sector.n_electrons, round(2 * spin)
            # largest 2S: every singly occupied site (every spin site) aligned
            most = min(n_e, 2 * n - n_e) if model.fermionic else n * round(2 * model.site_spin)
            if twice_s > most or not spin_occurs(twice_s, sector.twice_ms):
                raise ConfigError(
                    f"[subspace] spin = {spin} does not occur in {sector} on {n} sites: "
                    f"it needs |2M_S| <= 2S <= {most} and 2S - 2M_S even"
                )
    elif dense and dim > DENSE_CAP_DEFAULT:
        raise ConfigError(
            f"the full spectrum of the dimension-{dim} sector is above the dense cap "
            f"{DENSE_CAP_DEFAULT}; choose a symmetry block with [subspace]"
        )
    if from_archive:
        archive = keys.file("input", "archive")
        if not archive.exists():
            raise ConfigError(f"input archive {archive} does not exist")
    if task not in ("solve", "sweep"):
        left = keys.integer("entangle", "left_size", required=True)
        n_sites, n_states = _archive_sites(archive) if from_archive else (geometry.n_sites, None)
        if n_sites is not None and not 1 <= left < n_sites:
            raise ConfigError(f"[entangle] left_size must be in 1..{n_sites - 1}, got {left}")
        if from_archive:
            state = keys.integer("entangle", "state", 1)
            if n_states is not None and not 1 <= state <= n_states:
                raise ConfigError(f"[entangle] state must be in 1..{n_states}, got {state}")
    if dense:
        smoothing = keys.raw("profile", "smoothing", "none")
        if task == "profile" and smoothing not in SMOOTHING_MODES:
            raise ConfigError(f"[profile] smoothing must be one of {SMOOTHING_MODES}, got {smoothing!r}")
        bin_width = keys.positive("profile", "bin_width", 0.5)
    if task == "sweep":
        model = keys.model()
        sweep = keys.sweep(model)
    # [target] is read only by the runs that draw Lanczos start vectors
    k, tol, seed, label_text = 1, 1e-10, None, None
    if solves_target:
        label_text = keys.raw("target", "label")
        k = keys.integer("target", "k", 1)
        if k < 1:
            raise ConfigError("[target] k must be at least 1")
    if solves_target or task == "sweep":
        tol = keys.positive("target", "tol", 1e-10)
        seed = keys.integer("target", "seed", 1)
        if seed < 0:
            raise ConfigError(f"[target] seed must be non-negative, got {seed}")
    if solves_target and label_text:
        if not model.fermionic:
            raise ConfigError(f"[target] label {label_text} needs a fermionic model, not {model.kind!r}")
        try:
            label = parse_label(label_text)
            want = _default_sector(geometry, model, label.twice_ms_highest)
            check_block(geometry, want, label.c2_parity, label.eh_parity)
            check_model_block(model, label.eh_parity)
        except (SectorError, SymmetryError) as exc:
            raise ConfigError(f"[target] label {label_text} on {geometry.name!r}: {exc}") from None
        if sector != want:
            raise ConfigError(f"[target] label {label_text} is solved in {want}, not in {sector}")
    elif solves_target and k > dim:
        raise ConfigError(f"[target] k = {k} exceeds the sector dimension {dim}")
    elif solves_target and k >= dim - 1 and dim > DENSE_CAP_DEFAULT:
        raise ConfigError(
            f"[target] k = {k} asks for the full spectrum of a dimension-{dim} "
            f"sector, above the dense cap {DENSE_CAP_DEFAULT}"
        )
    return RunConfig(
        task, output, sections, k=k, tol=tol, seed=seed, label=label, sector=sector,
        subspace=subspace, archive=archive, state=state, left_size=left, smoothing=smoothing,
        bin_width=bin_width, sweep=sweep, _geometry=geometry, _model=model,
    )
