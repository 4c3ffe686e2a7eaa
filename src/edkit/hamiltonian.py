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

Every operator keeps its CSR form as `matrix`, which dense solves, symmetry
blocks and residual checks use.  `h @ x` applies a fermion H as the
Kronecker sum it is: with the vector reshaped to the n_up x n_dn layout X
of the sector, H x is T_up X + (T_dn Xᵀ)ᵀ + D * X.  It runs in blocks of
rows of X of about 2^16 entries, one pool worker per CPU, and each entry is
summed as the whole-vector formula sums it, so the bits do not depend on
the CPU count; it beats the whole-vector and CSR products (CHANGES.md).
A spin operator applies `matrix @ x`.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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

_BLOCK = 1 << 16  # entries of one row block: a few blocks of vectors fit in cache
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _forget_pool() -> None:
    # a forked child inherits the executor without its threads, and its
    # first block would wait for them forever
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _in_blocks(fn, n: int, step: int) -> None:
    """fn(a, b) for every block [a, b) of `step` items of range(n).

    The blocks run on a thread pool with one worker per CPU, started at the
    first call with more than one block; with one block or one CPU they run
    here, in order.  Each block writes only its own part of the result, so
    the result is the same for any CPU count and block size.
    """
    global _pool
    step = max(1, step)
    starts = range(0, n, step)
    workers = _workers()
    if len(starts) <= 1 or workers == 1:
        for a in starts:
            fn(a, min(a + step, n))
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="edkit-rows")
    for _ in _pool.map(lambda a: fn(a, min(a + step, n)), starts):
        pass


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
        if self.kind == "ppp" and not self.U > 0:  # the Ohno potential needs U_i + U_j > 0
            raise ModelError(f"U must be positive for the PPP model, got {self.U}")
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
    """Hermitian operator restricted to one sector, stored in CSR form.

    A fermion operator also keeps its Kronecker-sum factors (T_up, T_dn, D),
    and `op @ x` applies them to a vector; otherwise `op @ x` is
    `matrix @ x`.
    """

    def __init__(
        self,
        matrix: sp.csr_matrix,
        basis: BasisTable,
        geometry: Geometry,
        model: ModelSpec,
        kron: tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray] | None = None,
    ) -> None:
        self.matrix = matrix.tocsr()
        self.basis = basis
        self.geometry = geometry
        self.model = model
        self.kron = kron
        if kron is not None:  # T_up cut once into the row blocks of `@`
            step = max(1, _BLOCK // kron[2].shape[1])
            self._up_rows = step, [kron[0][a:a + step] for a in range(0, kron[0].shape[0], step)]

    @property
    def sector(self) -> Sector:
        return self.basis.sector

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H x for one vector x of the sector.

        A fermion H runs over blocks of rows of the n_up x n_dn layout: rows
        a:b of the output are T_up[a:b] X + (T_dn X[a:b]ᵀ)ᵀ + D[a:b] * X[a:b],
        each entry summed as the whole-vector formula sums it.
        """
        if np.shape(x) != (self.dim,):
            raise ModelError(f"H acts on vectors of length {self.dim}, got shape {np.shape(x)}")
        if self.kron is None:
            return self.matrix @ x
        _, t_dn, diag = self.kron
        step, up_rows = self._up_rows
        v = np.reshape(x, diag.shape)

        out = np.empty(diag.shape, np.result_type(diag, v))

        def rows(a: int, b: int) -> None:
            out[a:b] = up_rows[a // step] @ v
            out[a:b] += (t_dn @ v[a:b].T).T
            out[a:b] += diag[a:b] * v[a:b]

        _in_blocks(rows, len(v), step)
        return out.reshape(-1)

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


def _fermion_factors(
    geometry: Geometry, spec: ModelSpec, basis: BasisTable
) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """T_up, T_dn and the (n_up, n_dn) diagonal D of H = T_up ⊗ I + I ⊗ T_dn + D."""
    n, up, dn = geometry.n_sites, basis.up_masks, basis.dn_masks
    nu, nd = len(up), len(dn)
    bonds = _bond_matrix(geometry, -spec.t)
    t_up = _channel_hopping(up, _masks_with_popcount(n, basis.sector.n_up - 1), bonds)
    t_dn = _channel_hopping(dn, _masks_with_popcount(n, basis.sector.n_dn - 1), bonds)
    occ_u = _occupancy(up, n)
    occ_d = _occupancy(dn, n)
    diag = np.zeros((nu, nd))
    if spec.kind in ("hubbard", "ppp") and spec.U != 0.0:
        # (U/2) n(n-1) = U * (number of doubly occupied sites)
        diag += spec.U * (occ_u @ occ_d.T)
    if spec.kind == "ppp":
        d = geometry.distance_matrix
        v = np.array([[ohno_potential(spec.U, spec.U, r) for r in row] for row in d])
        np.fill_diagonal(v, 0.0)  # V_ij for i != j only
        w = v.sum(axis=1)
        z = spec.z
        a_up = 0.5 * np.einsum("in,nm,im->i", occ_u, v, occ_u) - z * (occ_u @ w)
        a_dn = 0.5 * np.einsum("in,nm,im->i", occ_d, v, occ_d) - z * (occ_d @ w)
        cross = occ_u @ v @ occ_d.T
        const = 0.5 * z * z * float(w.sum())
        diag += a_up[:, None] + a_dn[None, :] + cross + const
    return t_up, t_dn, diag


def _row_nonzeros(t: sp.csr_matrix) -> np.ndarray:
    """Nonzero values per row; a stored zero drops out of a sparse sum."""
    return np.diff(np.r_[0, np.cumsum(t.data != 0)][t.indptr])


def _kron_sum(t_up: sp.csr_matrix, t_dn: sp.csr_matrix, diag: np.ndarray) -> sp.csr_matrix:
    """The CSR matrix T_up ⊗ I + I ⊗ T_dn + D.

    The three terms never share an entry, so row (u, d) holds the nonzeros
    of row u of T_up and row d of T_dn and a nonzero D_ud, and `indptr` is
    known before any sum.  The sums then run over blocks of rows of about
    2^20 nonzeros, one after another on the calling thread, each written
    into the final arrays as a whole-matrix sum would give it: the build
    holds one full-size matrix, not the inputs and output of whole sums.
    """
    nu, nd = diag.shape
    eye_nu, eye_nd = sp.identity(nu, format="csr"), sp.identity(nd, format="csr")
    diag = diag if np.any(diag) else None
    nnz_up, nnz_dn = _row_nonzeros(t_up), _row_nonzeros(t_dn)
    nnz = int(nnz_up.sum()) * nd + nu * int(nnz_dn.sum())
    nnz += 0 if diag is None else np.count_nonzero(diag)
    index = np.int32 if max(nnz, nu * nd) < 2**31 else np.int64
    data, indices = np.empty(nnz), np.empty(nnz, dtype=index)
    indptr = np.zeros(nu * nd + 1, dtype=index)
    counts = indptr[1:].reshape(nu, nd)  # row nonzeros, then summed in place
    np.add(nnz_up[:, None], nnz_dn[None, :], out=counts, casting="unsafe")
    if diag is not None:
        counts += diag != 0
    np.cumsum(indptr, out=indptr)
    step = max(1, (nu * _BLOCK << 4) // max(nnz, 1))
    for a in range(0, nu, step):
        b = min(a + step, nu)
        h = sp.kron(t_up[a:b], eye_nd, format="csr") + sp.kron(eye_nu[a:b], t_dn, format="csr")
        if diag is not None:
            shape = ((b - a) * nd, nu * nd)
            h = h + sp.diags(diag[a:b].reshape(-1), a * nd, shape=shape, format="csr")
        start, end = indptr[a * nd], indptr[b * nd]
        data[start:end] = h.data
        indices[start:end] = h.indices
    return sp.csr_matrix((data, indices, indptr), shape=(nu * nd, nu * nd))


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
        kron = _fermion_factors(geometry, spec, basis)
        return SparseOperator(_kron_sum(*kron), basis, geometry, spec, kron)
    if sector.n_electrons is not None:
        raise ModelError("the Heisenberg model takes Sector(n_electrons=None, ...)")
    basis = enumerate_sector(geometry, spec.kind, sector, site_spin=spec.site_spin)
    return SparseOperator(_spin_matrix(geometry, spec, basis), basis, geometry, spec)
