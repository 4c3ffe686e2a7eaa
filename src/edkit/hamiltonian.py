"""Sector-restricted Hamiltonians for Hückel, Hubbard, PPP and Heisenberg models.

Electronic models:

    H = -sum_{<ij>,sigma} t (c+_{i sigma} c_{j sigma} + h.c.)
        + sum_i (U/2) n_i (n_i - 1)
        + sum_{i>j} V_ij (n_i - z)(n_j - z)          (PPP only, all pairs)

with V_ij from the Ohno interpolation of the on-site repulsion and the
inter-site distance.  Energies are in eV, distances in Angstrom.  The spin
model is H = J sum_{<ij>} S_i . S_j with site spin 1/2 or 1.

Operators are sparse algebra on the ladder primitives of the basis module.
One fermion channel hops with T = Cᵀ (B ⊗ I) C (C: every site's annihilator
stacked, B: the -t bond matrix), and H = T_up ⊗ I + I ⊗ T_dn + D with D the
U and PPP diagonal.  Spin flip-flops are (J/2) sqrt(R (B ⊗ I) Rᵀ), with R
the raisers from the 2M_S - 2 sector side by side and B the bond adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import (
    BasisTable,
    Sector,
    _annihilator,
    _masks_with_popcount,
    _occupancy,
    _raiser,
    _spin_codes,
    enumerate_sector,
    is_fermionic_kind,
)
from .lattice import Geometry

__all__ = [
    "ModelSpec",
    "SparseOperator",
    "ModelError",
    "ohno_potential",
    "build_model",
]

MODEL_KINDS = ("huckel", "hubbard", "ppp", "heisenberg")


class ModelError(ValueError):
    """Model parameters or model/sector combination rejected."""


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one lattice model.

    t and U are in eV (uniform hopping and on-site repulsion), z is the
    neutral-site occupancy entering the PPP long-range term, J the exchange
    constant of the spin model, site_spin the spin carried by each site of
    a Heisenberg chain (1/2 or 1).
    """

    kind: str
    t: float = -2.4
    U: float = 11.26
    z: float = 1.0
    J: float = 1.0
    site_spin: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        for name in ("t", "U", "z", "J"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ModelError(f"{name} must be finite, got {v}")
        if self.kind == "heisenberg" and round(2 * self.site_spin) not in (1, 2):
            raise ModelError(f"site_spin must be 1/2 or 1, got {self.site_spin}")

    @property
    def fermionic(self) -> bool:
        return is_fermionic_kind(self.kind)


def ohno_potential(u_i: float, u_j: float, r_ij: float) -> float:
    """Inter-site repulsion V(r) = 14.397 [ (28.794/(U_i+U_j))^2 + r^2 ]^{-1/2} eV.

    Interpolates between the on-site average (U_i+U_j)/2 at r = 0 and the
    bare 14.397/r Coulomb tail at large distance (r in Angstrom).
    """
    if u_i + u_j <= 0:
        raise ModelError(f"U_i + U_j must be positive, got {u_i + u_j}")
    if r_ij < 0:
        raise ModelError(f"r_ij must be non-negative, got {r_ij}")
    a = 28.794 / (u_i + u_j)
    return 14.397 / math.sqrt(a * a + r_ij * r_ij)


class SparseOperator:
    """Hermitian operator restricted to one sector, stored in CSR form and
    applied as `matrix @ x`."""

    def __init__(
        self,
        matrix: sp.csr_matrix,
        basis: BasisTable,
        geometry: Geometry,
        model: ModelSpec,
    ) -> None:
        self.matrix = matrix.tocsr()
        self.basis = basis
        self.geometry = geometry
        self.model = model

    @property
    def sector(self) -> Sector:
        return self.basis.sector

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SparseOperator({self.model.kind}, dim={self.dim}, "
            f"sector={self.sector}, nnz={self.matrix.nnz})"
        )


def _bond_matrix(geometry: Geometry, value: float) -> sp.csr_matrix:
    """The symmetric n_sites x n_sites matrix with `value` on every bond."""
    i, j = np.array(geometry.bonds, dtype=np.int64).reshape(-1, 2).T - 1
    n = geometry.n_sites
    return sp.csr_matrix((np.full(2 * len(i), value), (np.r_[i, j], np.r_[j, i])), shape=(n, n))


def _channel_hopping(masks: np.ndarray, lowered: np.ndarray, bonds: sp.csr_matrix) -> sp.csr_matrix:
    """sum_ij B_ij c+_i c_j on one channel, as Cᵀ (B ⊗ I) C with C the
    annihilators of every site stacked."""
    c = sp.vstack([_annihilator(masks, lowered, i) for i in range(bonds.shape[0])], format="csr")
    # the product comes out CSC (c.T is); in CSR the sector Kronecker
    # products that follow are built in row order, about twice as fast
    return (c.T @ sp.kron(bonds, sp.identity(len(lowered)), format="csr") @ c).tocsr()


def _fermion_matrix(geometry: Geometry, spec: ModelSpec, basis: BasisTable) -> sp.csr_matrix:
    n, up, dn = geometry.n_sites, basis.up_masks, basis.dn_masks
    nu, nd = len(up), len(dn)
    bonds = _bond_matrix(geometry, -spec.t)
    t_up = _channel_hopping(up, _masks_with_popcount(n, basis.sector.n_up - 1), bonds)
    t_dn = _channel_hopping(dn, _masks_with_popcount(n, basis.sector.n_dn - 1), bonds)
    h = sp.kron(t_up, sp.identity(nd, format="csr"), format="csr")
    h = h + sp.kron(sp.identity(nu, format="csr"), t_dn, format="csr")

    occ_u = _occupancy(up, n)
    occ_d = _occupancy(dn, n)
    diag = np.zeros((nu, nd))
    if spec.kind in ("hubbard", "ppp") and spec.U != 0.0:
        # (U/2) n(n-1) = U * (number of doubly occupied sites)
        diag += spec.U * (occ_u @ occ_d.T)
    if spec.kind == "ppp":
        d = geometry.distance_matrix
        v = np.zeros_like(d)
        off = ~np.eye(n, dtype=bool)
        v[off] = 14.397 / np.sqrt((28.794 / (2.0 * spec.U)) ** 2 + d[off] ** 2)
        w = v.sum(axis=1)
        z = spec.z
        a_up = 0.5 * np.einsum("in,nm,im->i", occ_u, v, occ_u) - z * (occ_u @ w)
        a_dn = 0.5 * np.einsum("in,nm,im->i", occ_d, v, occ_d) - z * (occ_d @ w)
        cross = occ_u @ v @ occ_d.T
        const = 0.5 * z * z * float(w.sum())
        diag += a_up[:, None] + a_dn[None, :] + cross + const
    if np.any(diag):
        h = h + sp.diags(diag.reshape(-1), format="csr")
    return h.tocsr()


def _spin_matrix(geometry: Geometry, spec: ModelSpec, basis: BasisTable) -> sp.csr_matrix:
    n, twice = geometry.n_sites, basis.twice_site_spin
    m = 0.5 * (2.0 * basis.digit_matrix() - twice)  # per-site magnetization
    diag = np.zeros(basis.dim)
    for a, b in geometry.bonds:
        diag += spec.J * m[:, a - 1] * m[:, b - 1]
    # (J/2) sum_<ij> (S+_i S-_j + S-_i S+_j) from the raisers of the 2M_S - 2
    # sector side by side; each product of two squared factors is an exact
    # integer, so one square root gives every flip-flop element exactly
    lowered = _spin_codes(n, twice + 1, basis.sector.twice_ms - 2, twice)
    r = sp.hstack([_raiser(lowered, basis.spin_codes, i, twice) for i in range(n)], format="csr")
    flips = r @ sp.kron(_bond_matrix(geometry, 1.0), sp.identity(len(lowered)), format="csr") @ r.T
    return (sp.diags(diag, format="csr") + 0.5 * spec.J * flips.sqrt()).tocsr()


def build_model(geometry: Geometry, spec: ModelSpec, sector: Sector) -> SparseOperator:
    """Assemble the sector-restricted Hamiltonian of `spec` on `geometry`."""
    if spec.fermionic:
        if sector.n_electrons is None:
            raise ModelError(f"model {spec.kind!r} requires an electron-count sector")
        if sector.n_electrons > 2 * geometry.n_sites:
            raise ModelError(
                f"{sector.n_electrons} electrons exceed 2*n_sites = {2 * geometry.n_sites}"
            )
        basis = enumerate_sector(geometry, spec.kind, sector)
        matrix = _fermion_matrix(geometry, spec, basis)
    else:
        if sector.n_electrons is not None:
            raise ModelError("the Heisenberg model takes Sector(n_electrons=None, ...)")
        basis = enumerate_sector(geometry, spec.kind, sector, site_spin=spec.site_spin)
        matrix = _spin_matrix(geometry, spec, basis)
    return SparseOperator(matrix, basis, geometry, spec)
