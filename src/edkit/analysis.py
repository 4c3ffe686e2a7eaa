"""Figure-level studies: sweeps, entropy profiles, DoS histograms, smoothing.

Everything here composes the lower modules: build a model, solve, cut,
measure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .basis import BasisTable, BipartiteIndex, Sector
from .entanglement import _manifold_entropies, schmidt_spectrum
from .hamiltonian import ModelSpec, build_model
from .lattice import Bipartition, Geometry, build_chain, half_cut
from .solver import (
    EigenSet,
    _degenerate_ranges,
    dense_subspace_spectrum,
    lanczos_lowest,
    lowest_in_label,
)
from .symmetry import SymmetryLabel, parse_label

__all__ = [
    "Profile",
    "EntropyDosComparison",
    "AnalysisError",
    "dos_histogram",
    "entropy_profile",
    "sweep_ground_state",
    "sweep_block_size",
    "excited_state_series",
    "entropy_vs_logdos",
    "spearman_rank",
    "ground_state_entropy",
    "labeled_state",
    "subspace_spectrum",
    "DEFAULT_EXCITED_TARGETS",
    "MAX_DOS_BINS",
]

# Default excited-state series: (series name, solved label, ordinal k);
# "2_Ag+" denotes the second state of the 1_Ag+ subspace
DEFAULT_EXCITED_TARGETS = (
    ("1_Ag+", "1_Ag+", 1),
    ("2_Ag+", "1_Ag+", 2),
    ("1_Bu-", "1_Bu-", 1),
    ("3_Bu+", "3_Bu+", 1),
)


# Largest DoS histogram `dos_histogram` writes; it stores every empty bin
MAX_DOS_BINS = 1_000_000

SMOOTHING_MODES = ("none", "paper", "energy_bin")


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class Profile:
    """A plottable series of (x, y) values plus provenance metadata."""

    x: np.ndarray
    y: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise AnalysisError("profile x and y must be 1-d arrays of equal length")
        if np.any(np.diff(x) < 0):
            raise AnalysisError("profile x values must be non-decreasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class EntropyDosComparison:
    """Per-energy-bin mean entropy next to log2 of the state count."""

    energy: np.ndarray
    mean_entropy: np.ndarray
    log2_dos: np.ndarray
    spearman: float | None


def _energy_bins(energies: np.ndarray, bin_width: float) -> tuple[float, np.ndarray]:
    """E_min and the bin index floor((E - E_min) / w) of every energy."""
    if bin_width <= 0:
        raise AnalysisError(f"bin width must be positive, got {bin_width}")
    e_min = float(energies.min())
    q = np.floor((energies - e_min) / bin_width)
    if not q.max() < 2.0**63:  # also catches inf and nan
        raise AnalysisError(f"bin width {bin_width!r} is too small: a bin index does not fit int64")
    return e_min, q.astype(np.int64)


def _bin_means(
    e_min: float, idx: np.ndarray, bin_width: float, entropies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center, mean entropy and state count of every non-empty `_energy_bins` bin."""
    bins, counts = np.unique(idx, return_counts=True)
    means = [float(entropies[idx == b].mean()) for b in bins]
    return e_min + (bins + 0.5) * bin_width, np.array(means), counts


def dos_histogram(eigenvalues: Sequence[float], bin_width: float = 0.5) -> Profile:
    """Counts of eigenvalues per [E_min + k w, E_min + (k+1) w) bin."""
    ev = np.asarray(eigenvalues, dtype=float)
    if ev.size == 0:
        raise AnalysisError("empty eigenvalue list")
    e_min, idx = _energy_bins(ev, bin_width)
    n_bins = int(idx.max()) + 1  # floor((E_max - E_min) / w) + 1
    if n_bins > MAX_DOS_BINS:
        raise AnalysisError(
            f"bin width {bin_width!r} would need {n_bins} DoS bins, more than {MAX_DOS_BINS}"
        )
    counts = np.bincount(idx)
    centers = e_min + (np.arange(len(counts)) + 0.5) * bin_width
    return Profile(
        x=centers,
        y=counts.astype(float),
        metadata={"bin_width": bin_width, "e_min": e_min, "total": int(ev.size)},
    )


def _paper_smoothing_groups(n: int) -> list[list[int]]:
    """Index groups (0-based) of the `paper` smoothing mode.

    From each end: 5 states raw, then means over consecutive groups of four
    through the 40th state from that end (eight full groups, states 6-37);
    the dense middle is averaged in groups of ten.  The boundaries of the
    two ends mirror each other as b -> n - b.
    """
    ends = [*range(6), *range(9, 38, 4)]
    bounds = ends + list(range(47, n - 37, 10)) + [n - b for b in reversed(ends)]
    return [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]


def _state_entropies(eigenset: EigenSet, basis: BasisTable, cut: Bipartition | BipartiteIndex) -> np.ndarray:
    """Per-state entropies (a copy), each the averaged-RDM entropy of its degenerate
    manifold; the read-only eigenset keeps them per bipartition and basis object."""
    bipartition = cut.bipartition if isinstance(cut, BipartiteIndex) else cut
    held = eigenset._entropies.get(bipartition)
    if held is None or held[0] is not basis:
        ranges = list(_degenerate_ranges(eigenset.values))
        entropies = _manifold_entropies(eigenset.vectors, basis, cut, ranges)
        held = eigenset._entropies[bipartition] = basis, np.repeat(entropies, [j - i for i, j in ranges])
    return held[1].copy()


def entropy_profile(
    eigenset: EigenSet,
    basis: BasisTable,
    bipartition: Bipartition,
    smoothing: str = "none",
    bin_width: float = 0.5,
) -> Profile:
    """Entanglement entropy across an energy spectrum, optionally smoothed.

    smoothing = "none" passes every state through; "paper" applies the
    raw-ends/groups-of-4/groups-of-10 scheme (needs at least 90 states,
    otherwise falls back to "none" with a warning); "energy_bin" averages
    the entropy inside successive energy windows of `bin_width`.

    Each member of a degenerate manifold (energies within DEGENERATE_RTOL)
    carries the manifold-averaged RDM entropy, `degenerate_average`, so the
    profile does not depend on the basis the eigensolver returns.  Its
    entropies are taken once per eigenset, basis and cut (`_state_entropies`).
    """
    energies = eigenset.values
    entropies = _state_entropies(eigenset, basis, bipartition)
    meta = {"smoothing": smoothing, "states": int(eigenset.k)}
    if smoothing == "none":
        return Profile(x=energies.copy(), y=entropies, metadata=meta)
    if smoothing == "paper":
        if eigenset.k < 90:
            warnings.warn(
                f"paper smoothing needs at least 90 states, got {eigenset.k}; "
                "falling back to raw values",
                stacklevel=2,
            )
            meta["smoothing"] = "none(fallback)"
            return Profile(x=energies.copy(), y=entropies, metadata=meta)
        groups = _paper_smoothing_groups(eigenset.k)
        x = np.array([energies[g].mean() for g in groups])
        y = np.array([entropies[g].mean() for g in groups])
        return Profile(x=x, y=y, metadata=meta)
    if smoothing == "energy_bin":
        x, y, _ = _bin_means(*_energy_bins(energies, bin_width), bin_width, entropies)
        meta["bin_width"] = bin_width
        return Profile(x=x, y=y, metadata=meta)
    raise AnalysisError(f"unknown smoothing mode {smoothing!r}")


def _default_sector(geometry: Geometry, spec: ModelSpec, twice_ms: int | None = None) -> Sector:
    """The half-filled sector, or the spin model's sector, at 2M_S = twice_ms;
    by default at the lowest |M_S|."""
    if twice_ms is None:  # lowest |M_S|: 2M_S has the parity of n_sites * 2s
        twice_ms = geometry.n_sites * (1 if spec.fermionic else round(2 * spec.site_spin)) % 2
    return Sector(geometry.n_sites if spec.fermionic else None, twice_ms)


def ground_state_entropy(
    geometry: Geometry,
    spec: ModelSpec,
    bipartition: Bipartition | None = None,
    tol: float = 1e-10,
    seed: int = 1,
) -> float:
    """Half-filled (or lowest-|M_S|) ground-state entanglement entropy in bits."""
    h = build_model(geometry, spec, _default_sector(geometry, spec))
    eig = lanczos_lowest(h, k=1, tol=tol, seed=seed)
    cut = bipartition if bipartition is not None else half_cut(geometry, geometry.n_sites // 2)
    return schmidt_spectrum(eig.vectors[:, 0], h.basis, cut).total_entropy


def sweep_ground_state(
    models: Mapping[str, ModelSpec],
    lengths: Sequence[int],
    bond_length: float = 1.397,
    tol: float = 1e-10,
    seed: int = 1,
) -> dict[str, Profile]:
    """Ground-state entropy at the equal cut versus chain length."""
    lengths = sorted(int(n) for n in lengths)
    for n in lengths:
        if n % 2 != 0 or n < 4:
            raise AnalysisError(f"chain lengths must be even and at least 4, got {n}")

    out: dict[str, Profile] = {}
    for name, spec in models.items():
        ys = [ground_state_entropy(build_chain(n, bond_length), spec, tol=tol, seed=seed)
              for n in lengths]
        out[name] = Profile(
            x=np.array(lengths, dtype=float),
            y=np.array(ys),
            metadata={"model": name, "sweep": "length", "cut": "half"},
        )
    return out


def sweep_block_size(
    spec: ModelSpec,
    n_sites: int = 16,
    blocks: Sequence[int] | None = None,
    bond_length: float = 1.397,
    tol: float = 1e-10,
    seed: int = 1,
) -> Profile:
    """Ground-state entropy versus left-block size at fixed chain length."""
    blocks = list(range(1, n_sites)) if blocks is None else sorted(int(b) for b in blocks)
    for b in blocks:
        if not 1 <= b < n_sites:
            raise AnalysisError(f"block size {b} outside 1..{n_sites - 1}")
    geometry = build_chain(n_sites, bond_length)
    h = build_model(geometry, spec, _default_sector(geometry, spec))
    eig = lanczos_lowest(h, k=1, tol=tol, seed=seed)
    v = eig.vectors[:, 0]
    ys = [schmidt_spectrum(v, h.basis, half_cut(geometry, b)).total_entropy for b in blocks]
    return Profile(
        x=np.array(blocks, dtype=float),
        y=np.array(ys),
        metadata={"model": spec.kind, "sweep": "block", "n_sites": n_sites},
    )


def labeled_state(
    geometry: Geometry,
    spec: ModelSpec,
    label: SymmetryLabel | str,
    k: int = 1,
    tol: float = 1e-10,
    seed: int = 1,
) -> tuple[EigenSet, BasisTable]:
    """Solve the k lowest states of a symmetry label in its natural sector."""
    if isinstance(label, str):
        label = parse_label(label)
    h = build_model(geometry, spec, _default_sector(geometry, spec, label.twice_ms_highest))
    eig = lowest_in_label(h, label, k=k, tol=tol, seed=seed)
    return eig, h.basis


def excited_state_series(
    models: Mapping[str, ModelSpec],
    lengths: Sequence[int],
    targets: Sequence[tuple[str, str, int]] = DEFAULT_EXCITED_TARGETS,
    bond_length: float = 1.397,
    tol: float = 1e-10,
    seed: int = 1,
) -> dict[tuple[str, str], Profile]:
    """Entropy of selected labeled states versus chain length.

    Each target is (series name, solved label, ordinal k); the series for
    the second state of a label (e.g. 2_Ag+) uses k = 2.
    """
    lengths = sorted(int(n) for n in lengths)
    out: dict[tuple[str, str], Profile] = {}
    for mname, spec in models.items():
        for sname, label_text, k in targets:
            ys = []
            for n in lengths:
                geometry = build_chain(n, bond_length)
                eig, basis = labeled_state(geometry, spec, label_text, k=k, tol=tol, seed=seed)
                cut = half_cut(geometry, n // 2)
                ys.append(schmidt_spectrum(eig.vectors[:, k - 1], basis, cut).total_entropy)
            out[(mname, sname)] = Profile(
                x=np.array(lengths, dtype=float),
                y=np.array(ys),
                metadata={"model": mname, "state": sname, "label": label_text, "k": k},
            )
    return out


def subspace_spectrum(
    geometry: Geometry,
    spec: ModelSpec,
    twice_ms: int,
    c2_parity: int,
    eh_parity: int | None,
    spin: float | None = None,
) -> tuple[EigenSet, BasisTable]:
    """Dense full spectrum of one symmetry-adapted subspace of the
    half-filled (or spin-model) sector at 2M_S = twice_ms; see
    `dense_subspace_spectrum`."""
    h = build_model(geometry, spec, _default_sector(geometry, spec, twice_ms))
    return dense_subspace_spectrum(h, c2_parity, eh_parity, spin=spin), h.basis


def spearman_rank(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks; all-tied input gives 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise AnalysisError("inputs must be 1-d arrays of equal length")

    def ranks(a: np.ndarray) -> np.ndarray:
        # a run of c tied values ending at sorted position C has average rank C - (c - 1)/2
        _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2)[inverse]

    rx, ry = ranks(x), ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))


def entropy_vs_logdos(
    eigenset: EigenSet,
    basis: BasisTable,
    bipartition: Bipartition,
    bin_width: float = 0.5,
) -> EntropyDosComparison:
    """Binned mean entropy against log2 of the density of states.

    The Spearman rank correlation over non-empty bins operationalizes the
    observed proportionality between entropy and log(DoS); with fewer than
    four non-empty bins it is undefined and reported as None.  It reuses the
    entropies of an `entropy_profile` of the same eigenset, basis and cut.
    """
    e_min, idx = _energy_bins(eigenset.values, bin_width)
    entropies = _state_entropies(eigenset, basis, bipartition)
    centers, means, counts = _bin_means(e_min, idx, bin_width, entropies)
    logdos = np.log2(counts)
    corr = spearman_rank(means, logdos) if len(centers) >= 4 else None
    return EntropyDosComparison(energy=centers, mean_entropy=means, log2_dos=logdos, spearman=corr)
