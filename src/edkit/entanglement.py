"""Reduced density matrices across a site cut and von Neumann entropies.

Because electron count and z-spin are additive across a cut, the
coefficient matrix of a sector state is block diagonal over left-block
sectors.  One path serves single states and degenerate manifolds: for the
g orthonormal vectors of a manifold, the block of the averaged RDM is
(1/g) sum_i C_i C_i^T = M M^T / g with M = [C_1 ... C_g], so its
eigenvalues are the squared singular values of M over g.  No reduced
density matrix is formed, neither for states nor for manifolds, which keeps
eigenvalues accurate down to the 1e-16 floor.  All entropies are in bits.

The coefficient matrices come from the channel layouts of the basis module,
with no per-state index: the vectors are permuted once into the sorted
(n_up, n_dn, g) layout (spins: (dim, g)) and signed by the gather parities;
each block is then a slice, reshaped to [u_l, u_r, d_l, d_r, g] and
transposed to [(u_l, d_l), (g, u_r, d_r)], times its cross sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.special import xlogy

from .basis import BasisTable, BipartiteBlock, BipartiteIndex, Sector, bipartite_factorize
from .lattice import Bipartition, Geometry
from .solver import DegenerateManifold

__all__ = [
    "RDMSpectrum",
    "SectorSpectrum",
    "EntanglementError",
    "DegenerateFermiLevelError",
    "WEIGHT_FLOOR",
    "entropy_bits",
    "schmidt_spectrum",
    "entropy_both_sides",
    "decade_histogram",
    "degenerate_average",
    "free_fermion_oracle",
]

WEIGHT_FLOOR = 1e-16


class EntanglementError(ValueError):
    pass


class DegenerateFermiLevelError(EntanglementError):
    """One-body levels degenerate at the Fermi energy; the orbital filling
    is ambiguous and an explicit filling rule must be chosen."""


def entropy_bits(weights: np.ndarray) -> float:
    """-sum w log2 w with 0 log 0 = 0."""
    w = np.asarray(weights, dtype=float)
    return float(-np.sum(xlogy(w, w)) / np.log(2.0))


@dataclass(frozen=True)
class SectorSpectrum:
    """RDM eigenvalues carried by one left-block (2M_S, n) sector."""

    twice_ms_left: int
    n_left: int
    weights: np.ndarray  # descending, zeros below the floor dropped

    @property
    def partial_entropy(self) -> float:
        return entropy_bits(self.weights)


@dataclass(frozen=True)
class RDMSpectrum:
    """Reduced-density-matrix eigenvalues grouped by left-block sector."""

    sectors: tuple[SectorSpectrum, ...]
    left_fock_dim: int
    right_fock_dim: int

    def __post_init__(self) -> None:
        total = float(sum(s.weights.sum() for s in self.sectors))
        if abs(total - 1.0) > 1e-10:
            raise EntanglementError(f"RDM eigenvalues sum to {total!r}, expected 1")

    @property
    def weights(self) -> np.ndarray:
        if not self.sectors:
            return np.zeros(0)
        return np.sort(np.concatenate([s.weights for s in self.sectors]))[::-1]

    @property
    def total_entropy(self) -> float:
        return float(sum(s.partial_entropy for s in self.sectors))

    @property
    def entropy_bound(self) -> float:
        return float(np.log2(min(self.left_fock_dim, self.right_fock_dim)))

    def sector_entropies(self) -> list[tuple[tuple[int, int], float]]:
        rows = [((s.twice_ms_left, s.n_left), s.partial_entropy) for s in self.sectors]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows


def _fock_dims(basis: BasisTable, bipartition: Bipartition) -> tuple[int, int]:
    per_site = 4 if basis.kind == "fermion" else basis.twice_site_spin + 1
    return per_site ** len(bipartition.left), per_site ** len(bipartition.right)


def _resolve_index(
    basis: BasisTable,
    cut: Bipartition | BipartiteIndex,
) -> BipartiteIndex:
    if isinstance(cut, BipartiteIndex):
        built = (cut.kind, cut.n_sites, cut.sector, cut.twice_site_spin)
        given = (basis.kind, basis.n_sites, basis.sector, basis.twice_site_spin)
        if built != given:
            raise EntanglementError(
                f"bipartite index was built for a different basis: {built} is not this "
                f"basis's (kind, n_sites, sector, twice_site_spin) = {given}"
            )
        return cut
    return bipartite_factorize(basis, cut)


def _coefficient_blocks(
    vectors: np.ndarray, index: BipartiteIndex
) -> Iterator[tuple[BipartiteBlock, np.ndarray]]:
    """(block, M) for every block of the index, M = [C_1 ... C_g] the block's
    coefficient matrices of the g columns of `vectors`, side by side."""
    g = vectors.shape[1]
    orders = [ch.order for ch in index.channels]
    view = vectors.reshape(*map(len, orders), g)[np.ix_(*orders)]
    view *= reduce(np.multiply.outer, [ch.sign for ch in index.channels])[..., None]
    c = len(orders)
    axes = [*range(0, 2 * c, 2), 2 * c, *range(1, 2 * c, 2)]
    for block in index.blocks:
        part = view[tuple(slice(a, a + nl * nr) for a, nl, nr in block.segments)]
        part = part.reshape(*(d for _, nl, nr in block.segments for d in (nl, nr)), g)
        m = part.transpose(axes).reshape(block.left_dim, g * block.right_dim)
        yield block, (m if block.cross_sign > 0 else -m)


def _averaged_spectrum(
    vectors: np.ndarray,
    basis: BasisTable,
    cut: Bipartition | BipartiteIndex,
) -> RDMSpectrum:
    """Spectrum of (1/g) sum_i rho_i over the g orthonormal columns of
    `vectors`: the squared singular values of every block's M, over g."""
    if vectors.shape[0] != basis.dim:
        raise EntanglementError(
            f"vector length {vectors.shape[0]} does not match the basis dimension {basis.dim}"
        )
    g = vectors.shape[1]
    norms = np.linalg.norm(vectors, axis=0)
    bad = np.abs(norms - 1.0) > 1e-10
    if bad.any():
        raise EntanglementError(f"input vector is not normalized (|v| = {norms[bad][0]!r})")
    index = _resolve_index(basis, cut)
    sectors = []
    for block, m in _coefficient_blocks(vectors, index):
        sigma = sla.svd(m, compute_uv=False) if min(m.shape) else np.zeros(0)
        w = sigma * sigma / g  # descending, as LAPACK returns sigma
        w = w[w >= WEIGHT_FLOOR]
        if w.size:
            sectors.append(SectorSpectrum(block.twice_ms_left, block.n_left, w))
    lf, rf = _fock_dims(basis, index.bipartition)
    return RDMSpectrum(sectors=tuple(sectors), left_fock_dim=lf, right_fock_dim=rf)


def schmidt_spectrum(
    vector: np.ndarray,
    basis: BasisTable,
    cut: Bipartition | BipartiteIndex,
) -> RDMSpectrum:
    """Left-block RDM eigenvalues of a normalized sector state, by sector."""
    return _averaged_spectrum(np.asarray(vector, dtype=float)[:, None], basis, cut)


def entropy_both_sides(
    vector: np.ndarray,
    basis: BasisTable,
    bipartition: Bipartition,
) -> tuple[float, float]:
    """Entropy from the left-block RDM and, independently, the right-block RDM."""
    s_left = schmidt_spectrum(vector, basis, bipartition).total_entropy
    swapped = Bipartition(bipartition.right, bipartition.left)
    s_right = schmidt_spectrum(vector, basis, swapped).total_entropy
    return s_left, s_right


def decade_histogram(spectrum: RDMSpectrum | np.ndarray, n_decades: int = 16) -> np.ndarray:
    """Counts n_p of eigenvalues with 10^-p > w >= 10^-(p+1), p = 0..n_decades-1.

    Exact powers of ten land in the lower-p bin (strict upper bound); w = 1
    is clamped into bin 0; values below the 1e-16 floor are dropped.
    """
    w = spectrum.weights if isinstance(spectrum, RDMSpectrum) else np.asarray(spectrum, float)
    w = w[w >= WEIGHT_FLOOR]
    counts = np.zeros(n_decades, dtype=np.int64)
    if w.size == 0:
        return counts
    r = -np.log10(w)
    snapped = np.where(np.abs(r - np.round(r)) < 1e-9, np.round(r), r)
    p = np.ceil(snapped).astype(np.int64) - 1
    p = np.clip(p, 0, n_decades - 1)
    np.add.at(counts, p, 1)
    return counts


def degenerate_average(
    manifold: DegenerateManifold,
    basis: BasisTable,
    cut: Bipartition | BipartiteIndex,
) -> RDMSpectrum:
    """Spectrum of the RDM averaged over a degenerate manifold.

    rho_av = (1/g) sum_i rho_i is invariant under orthonormal re-mixing of
    the manifold, unlike the per-state spectra.
    """
    if manifold.multiplicity == 0:
        raise EntanglementError("empty degenerate manifold")
    return _averaged_spectrum(np.asarray(manifold.vectors, dtype=float), basis, cut)


def free_fermion_oracle(
    geometry: Geometry,
    t: float,
    cut: Bipartition | Sequence[int],
    sector: Sector,
) -> float:
    """Entanglement entropy of the U = 0 ground state from the one-body
    correlation matrix, in bits.

    Independent of the many-body machinery: diagonalizes the hopping
    matrix, fills the lowest orbitals per spin channel, and converts the
    block correlation eigenvalues nu into entropy via
    -sum [nu log2 nu + (1-nu) log2(1-nu)].
    """
    n = geometry.n_sites
    if sector.n_electrons is None:
        raise EntanglementError("the free-fermion oracle needs an electronic sector")
    h1 = np.zeros((n, n))
    for i, j in geometry.bonds:
        h1[i - 1, j - 1] = -t
        h1[j - 1, i - 1] = -t
    levels, orbitals = sla.eigh(h1)
    left_sites = cut.left if isinstance(cut, Bipartition) else tuple(cut)
    idx = [s - 1 for s in left_sites]
    total = 0.0
    for filled in (sector.n_up, sector.n_dn):
        if filled == 0:
            continue
        if filled < n and levels[filled] - levels[filled - 1] < 1e-10:
            raise DegenerateFermiLevelError(
                f"one-body levels {filled - 1} and {filled} are degenerate at the Fermi "
                "energy; choose an explicit orbital filling rule"
            )
        occ = orbitals[:, :filled]
        corr = occ @ occ.T
        nu = np.clip(sla.eigvalsh(corr[np.ix_(idx, idx)]), 0.0, 1.0)
        total += float(-(np.sum(xlogy(nu, nu)) + np.sum(xlogy(1.0 - nu, 1.0 - nu))) / np.log(2.0))
    return total
