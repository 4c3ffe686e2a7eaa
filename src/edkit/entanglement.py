"""Reduced density matrices across a site cut and von Neumann entropies.

Because electron count and z-spin are additive across a cut, the
coefficient matrix of a sector state is block diagonal over left-block
sectors.  One path serves single states, degenerate manifolds and whole
spectra: for the g orthonormal vectors of a manifold, the block of the
averaged RDM is (1/g) sum_i C_i C_i^T = M M^T / g with M = [C_1 ... C_g],
so its eigenvalues are the squared singular values of M over g.  No reduced
density matrix is formed, which keeps eigenvalues accurate down to the
1e-16 floor.  All entropies are in bits.

The coefficient matrices come from the channel layouts of the basis module,
with no per-state index: the K vectors of a call are permuted into the
sorted (n_up, n_dn, K) layout (spins: (dim, K)) and signed by the gather
parities; each block is then a slice, reshaped to [u_l, u_r, d_l, d_r, K]
and transposed to [(u_l, d_l), (K, u_r, d_r)], times its cross sign.  One
pass over the blocks serves every manifold among the K columns: the M of
the manifold [i, j) is the column slice [i, j) of the block's middle axis.
A whole spectrum is taken in the column chunks of `solver._column_chunks`,
whole manifolds each, so only a chunk of its columns is ever permuted; the
chunks are split across the row-block pool of `hamiltonian._in_blocks`, and
each writes only the entropies of its own manifolds.

Singular values come from two LAPACK builds, chosen by the size of M
alone.  The M of the ranges of one g in one block, if it has at most
SVD_STACK_MAX entries, are stacked and go to NumPy's `np.linalg.svd`, whose
gufunc releases the GIL, so the chunks on the pool run it side by side;
SciPy's f2py wrapper holds it, so SciPy's calls run one at a time.  A larger
M stays on SciPy's dgesdd, `_singular_values`, which OpenBLAS threads
itself.  SVD_STACK_MAX (64 x 64) lies below the size where the pooled stack
stops beating SciPy's loop, and the two builds agree bit for bit (CHANGES.md).

Entropies are summed left to right, -w log2 w over a block's weights and
then the blocks in index order, so a spectrum's `total_entropy` and the
entropy `_manifold_entropies` gives its manifold in a whole spectrum agree
bit for bit, whatever zeros pad a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgesdd, dgesdd_lwork
from scipy.special import xlogy

from . import hamiltonian
from .basis import BasisTable, BipartiteBlock, BipartiteIndex, Sector, bipartite_factorize
from .lattice import Bipartition, Geometry
from .solver import DegenerateManifold, _column_chunks

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
_N_DECADES = 16  # bins of `decade_histogram`: the decades down to WEIGHT_FLOOR
SVD_STACK_MAX = 4096  # entries of the largest M stacked for NumPy's SVD


class EntanglementError(ValueError):
    pass


class DegenerateFermiLevelError(EntanglementError):
    """One-body levels degenerate at the Fermi energy; the orbital filling
    is ambiguous and an explicit filling rule must be chosen."""


def _row_entropies(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w along the last axis, added left to right, so that zeros
    padded on the right change no bit."""
    terms = xlogy(w, w)
    if not terms.shape[-1]:
        return np.zeros(terms.shape[:-1])
    return -np.cumsum(terms, axis=-1)[..., -1] / np.log(2.0)


def entropy_bits(weights: np.ndarray) -> float:
    """-sum w log2 w with 0 log 0 = 0."""
    return float(_row_entropies(np.asarray(weights, dtype=float).ravel()))


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
        # left to right from +0.0, in block order, as `_manifold_entropies` adds them;
        # `sum` would differ, as Python 3.12 sums floats with compensation
        return float(reduce(float.__add__, (s.partial_entropy for s in self.sectors), 0.0))

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


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Descending singular values from SciPy's LAPACK dgesdd with the optimal
    workspace, as `scipy.linalg.svd` computes them: the kernel for an M of
    more than SVD_STACK_MAX entries, which OpenBLAS threads itself; NumPy's
    stacked SVD on the pool was slower there (module docstring)."""
    lwork = int(dgesdd_lwork(*a.shape, compute_uv=0, full_matrices=0)[0])
    _, sigma, _, info = dgesdd(a, compute_uv=0, full_matrices=0, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(f"dgesdd failed with info = {info}")
    return sigma


def _weight_rows(
    vectors: np.ndarray,
    basis: BasisTable,
    cut: Bipartition | BipartiteIndex,
    ranges: Sequence[tuple[int, int]],
) -> Iterator[tuple[BipartiteBlock, np.ndarray]]:
    """(block, W) for every block of the cut.  Row r of W holds the block's
    eigenvalues of the RDM averaged over the orthonormal columns [i, j) =
    ranges[r] of `vectors`: the squared singular values of that manifold's M
    over g = j - i, descending, zero below WEIGHT_FLOOR and zero-padded on
    the right.  The vectors are permuted once for all the ranges of the
    call (`_manifold_entropies` passes one column chunk at a time), and the
    M of the ranges of one g are stacked for one SVD call."""
    if vectors.shape[0] != basis.dim:
        raise EntanglementError(
            f"vector length {vectors.shape[0]} does not match the basis dimension {basis.dim}"
        )
    norms = np.linalg.norm(vectors, axis=0)
    bad = np.abs(norms - 1.0) > 1e-10
    if bad.any():
        raise EntanglementError(f"input vector is not normalized (|v| = {float(norms[bad][0])!r})")
    index = _resolve_index(basis, cut)
    widest = max((j - i for i, j in ranges), default=0)
    by_width: dict[int, list[int]] = {}
    for r, (i, j) in enumerate(ranges):
        by_width.setdefault(j - i, []).append(r)
    for block, m in _coefficient_blocks(vectors, index):
        left, right = block.left_dim, block.right_dim
        m = m.reshape(left, vectors.shape[1], right)
        w = np.zeros((len(ranges), min(left, widest * right)))
        for g, rows in by_width.items():
            if left * g * right > SVD_STACK_MAX:
                for r in rows:
                    i, j = ranges[r]
                    sigma = _singular_values(m[:, i:j].reshape(left, -1))
                    w[r, : len(sigma)] = sigma * sigma / g
                continue
            columns = np.array([ranges[r][0] for r in rows])[:, None] + np.arange(g)
            stack = m[:, columns].reshape(left, len(rows), g * right).transpose(1, 0, 2)
            sigma = np.linalg.svd(stack, compute_uv=False)
            w[rows, : sigma.shape[1]] = sigma * sigma / g
        w[w < WEIGHT_FLOOR] = 0.0
        yield block, w


def _averaged_spectrum(
    vectors: np.ndarray,
    basis: BasisTable,
    cut: Bipartition | BipartiteIndex,
) -> RDMSpectrum:
    """Spectrum of (1/g) sum_i rho_i over the g orthonormal columns of `vectors`."""
    sectors = tuple(
        SectorSpectrum(block.twice_ms_left, block.n_left, w[0][w[0] > 0])
        for block, w in _weight_rows(vectors, basis, cut, [(0, vectors.shape[1])])
        if w[0].any()
    )
    bipartition = cut.bipartition if isinstance(cut, BipartiteIndex) else cut
    lf, rf = _fock_dims(basis, bipartition)
    return RDMSpectrum(sectors=sectors, left_fock_dim=lf, right_fock_dim=rf)


def _manifold_entropies(
    vectors: np.ndarray,
    basis: BasisTable,
    cut: Bipartition | BipartiteIndex,
    ranges: Sequence[tuple[int, int]],
) -> np.ndarray:
    """Averaged-RDM entropy of every manifold [i, j) of `ranges` (ascending
    and adjacent, as `solver._degenerate_ranges` gives them) among the
    orthonormal columns of `vectors`, bit for bit the `total_entropy` of its
    `degenerate_average`.  The ranges are taken in the column chunks of
    `solver._column_chunks`, split across the row-block pool; each chunk's
    columns are permuted on their own, in one pass over the blocks, and
    the chunk adds only its own ranges' entropies and weights."""
    index = _resolve_index(basis, cut)
    runs = list(_column_chunks(ranges, vectors.shape[0]))
    first = np.cumsum([0] + [len(run) for run in runs])
    total = np.zeros(len(ranges))
    weight = np.zeros(len(ranges))

    def walk(c: int, _: int) -> None:  # chunk c
        i0, j0, rows = runs[c][0][0], runs[c][-1][1], slice(first[c], first[c + 1])
        for _, w in _weight_rows(vectors[:, i0:j0], basis, index, [(i - i0, j - i0) for i, j in runs[c]]):
            total[rows] += _row_entropies(w)
            weight[rows] += w.sum(axis=1)

    hamiltonian._in_blocks(walk, len(runs), 1)
    bad = np.abs(weight - 1.0) > 1e-10
    if bad.any():
        raise EntanglementError(f"RDM eigenvalues sum to {float(weight[bad][0])!r}, expected 1")
    return total


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


def decade_histogram(spectrum: RDMSpectrum | np.ndarray) -> np.ndarray:
    """Counts n_p of eigenvalues with 10^-p > w >= 10^-(p+1), p = 0..15.

    Exact powers of ten land in the lower-p bin (strict upper bound); w = 1
    is clamped into bin 0; values below the 1e-16 floor are dropped.
    """
    w = spectrum.weights if isinstance(spectrum, RDMSpectrum) else np.asarray(spectrum, float)
    w = w[w >= WEIGHT_FLOOR]
    counts = np.zeros(_N_DECADES, dtype=np.int64)
    if w.size == 0:
        return counts
    r = -np.log10(w)
    snapped = np.where(np.abs(r - np.round(r)) < 1e-9, np.round(r), r)
    p = np.ceil(snapped).astype(np.int64) - 1
    p = np.clip(p, 0, _N_DECADES - 1)
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
