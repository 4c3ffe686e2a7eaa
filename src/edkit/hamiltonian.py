"""Sector-restricted Hamiltonians for Hückel, Hubbard, PPP and Heisenberg models.

Electronic models:

    H = -sum_{<ij>,sigma} t (c+_{i sigma} c_{j sigma} + h.c.)
        + sum_i (U/2) n_i (n_i - 1)
        + sum_{i>j} V_ij (n_i - z)(n_j - z)          (PPP only, all pairs)

with V_ij from the Ohno interpolation of the on-site repulsion and the
inter-site distance.  Energies are in eV, distances in Angstrom.  The spin
model is H = J sum_{<ij>} S_i . S_j with site spin 1/2 or 1.

Operators are assembled once into sparse matrices; the up and down hopping
channels act on independent mask lists, so the sector matrix is a Kronecker
sum plus a diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import BasisTable, Sector, enumerate_sector, is_fermionic_kind
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
    """Hermitian operator restricted to one sector, stored in CSR form."""

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

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ModelError(f"vector length {x.shape} does not match dimension {self.dim}")
        return self.matrix @ x

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SparseOperator({self.model.kind}, dim={self.dim}, "
            f"sector={self.sector}, nnz={self.matrix.nnz})"
        )


def _hop_bit_masks(masks: np.ndarray, n_sites: int, a: int, b: int) -> tuple[np.ndarray, ...]:
    """Matrix elements of c+_b c_a on one spin channel's mask list.

    Returns (source rows, target rows, signs); the fermionic sign counts the
    occupied sites strictly between a and b in the canonical ordering.
    """
    lo, hi = (a, b) if a < b else (b, a)
    between = np.uint64(((1 << (hi - 1)) - 1) ^ ((1 << lo) - 1))
    bit_a = np.uint64(1 << (a - 1))
    bit_b = np.uint64(1 << (b - 1))
    ok = ((masks & bit_a) != 0) & ((masks & bit_b) == 0)
    src = np.flatnonzero(ok)
    new = (masks[src] ^ bit_a) | bit_b
    tgt = np.searchsorted(masks, new)
    par = np.bitwise_count(masks[src] & between).astype(np.int64)
    sign = np.where(par % 2 == 0, 1.0, -1.0)
    return src, tgt, sign


def _channel_hopping(masks: np.ndarray, geometry: Geometry, t: float) -> sp.csr_matrix:
    n = len(masks)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for a, b in geometry.bonds:
        for src_site, dst_site in ((a, b), (b, a)):
            src, tgt, sign = _hop_bit_masks(masks, geometry.n_sites, src_site, dst_site)
            rows.append(tgt)
            cols.append(src)
            vals.append(-t * sign)
    if not rows:
        return sp.csr_matrix((n, n))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def _occupancy(masks: np.ndarray, n_sites: int) -> np.ndarray:
    shifts = np.arange(n_sites, dtype=np.uint64)[None, :]
    return ((masks[:, None] >> shifts) & np.uint64(1)).astype(np.float64)


def _fermion_matrix(geometry: Geometry, spec: ModelSpec, basis: BasisTable) -> sp.csr_matrix:
    up, dn = basis.up_masks, basis.dn_masks
    nu, nd = len(up), len(dn)
    t_up = _channel_hopping(up, geometry, spec.t)
    t_dn = _channel_hopping(dn, geometry, spec.t)
    h = sp.kron(t_up, sp.identity(nd, format="csr"), format="csr")
    h = h + sp.kron(sp.identity(nu, format="csr"), t_dn, format="csr")

    occ_u = _occupancy(up, geometry.n_sites)
    occ_d = _occupancy(dn, geometry.n_sites)
    diag = np.zeros((nu, nd))
    if spec.kind in ("hubbard", "ppp") and spec.U != 0.0:
        # (U/2) n(n-1) = U * (number of doubly occupied sites)
        diag += spec.U * (occ_u @ occ_d.T)
    if spec.kind == "ppp":
        d = geometry.distance_matrix
        v = np.zeros_like(d)
        off = ~np.eye(geometry.n_sites, dtype=bool)
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
    codes = basis.spin_codes
    dim = len(codes)
    twice = basis.twice_site_spin
    digits = basis.digit_matrix().astype(np.int64)
    m = 0.5 * (2.0 * digits - twice)  # per-site magnetization

    diag = np.zeros(dim)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for a, b in geometry.bonds:
        da, db = digits[:, a - 1], digits[:, b - 1]
        diag += spec.J * m[:, a - 1] * m[:, b - 1]
        for lo_site, hi_site in ((a, b), (b, a)):
            # S+_{lo} S-_{hi} / 2: raise digit at lo_site, lower at hi_site
            dl = digits[:, lo_site - 1]
            dh = digits[:, hi_site - 1]
            ok = (dl < twice) & (dh > 0)
            src = np.flatnonzero(ok)
            if len(src) == 0:
                continue
            raise_f = (twice - dl[src]) * (dl[src] + 1)
            lower_f = dh[src] * (twice - dh[src] + 1)
            coeff = 0.5 * spec.J * np.sqrt((raise_f * lower_f).astype(np.float64))
            new = (
                codes[src].astype(np.int64)
                + (1 << (2 * (lo_site - 1)))
                - (1 << (2 * (hi_site - 1)))
            ).astype(np.uint64)
            tgt = np.searchsorted(codes, new)
            rows.append(tgt)
            cols.append(src)
            vals.append(coeff)
    h = sp.diags(diag, format="csr")
    if rows:
        h = h + sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        )
    return h.tocsr()


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
