"""Eigensolvers: dense full spectra and Lanczos for large sectors.

`lanczos_lowest` finds each state by Lin's two-pass Lanczos (PRB 42, 6561
(1990)), which holds three vectors and the Ritz vector.  Pass 1 builds the
tridiagonal matrix T until the Ritz residual estimate clears `tol` or the
Krylov space is invariant; pass 2 reruns the recursion from the same start
vector with the stored coefficients, so it repeats pass 1 bit for bit, and
sums the Ritz vector.  Its products use `operator @ x`, the Kronecker sum
of a fermion H in row blocks on every CPU (see `hamiltonian`); the vector
updates of each step run block by block on the calling thread, and the two
inner products of a step over whole vectors, so the bits do not depend on
the CPU count or the block size.  The true residual is then checked on the
CSR `matrix`, an independent form of the same H, and a miss restarts from
the Ritz vector.  For k > 1 each further state is the lowest of H with
the found states shifted above its spectrum (Hotelling deflation), so a
degenerate partner is simply the next state found.  Start vectors come from
a seeded generator in state order, which makes solves reproducible and a
k-state solve the prefix of a larger one; every solve returns its count of
H products.

Symmetry blocks have one path.  `_symmetry_subspace` builds the (C2, eh)
projector of the operator's sector and its sparse orthonormal orbit basis Q
(about a quarter of the sector), and `_restrict` forms Q^T H Q.  Where a
total spin S is asked of a 2M_S = 0 sector (a `spin` of the dense block, or
a singlet label), spin inversion of parity (-1)^S is a third generator: the
block then holds only every other S and is about an eighth of the sector.
`dense_subspace_spectrum` diagonalizes that block densely;
`lowest_in_label` draws its Lanczos states one at a time, each solved once,
up to k + 40, and lifts each with Q and checks its residual on the full H
once, so its `matvecs` are the block products plus one check per drawn
state.  Both end in one step, `_sharp_states`: `sharpen_spin` rotates each
degenerate manifold to sharp S^2 from the Gram matrix of its images under
the sparse S+ of `symmetry.raising_operator`, and the lowest states of one
sharp total spin are kept.  `lowest_in_label` checks the returned block
against the projector P itself, not against Q: one `P @ block` product must
leave every vector within 1e-8.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import hamiltonian
from .basis import BasisTable
from .hamiltonian import SparseOperator
from .symmetry import (
    MixedSpinError,
    Projector,
    SymmetryLabel,
    _spin_of,
    format_label,
    projector,
    raising_operator,
    spin_flip_operator,
    spin_squared,
)

__all__ = [
    "EigenSet",
    "DegenerateManifold",
    "SolverError",
    "NonConvergenceError",
    "DimensionCapError",
    "dense_spectrum",
    "dense_subspace_spectrum",
    "lanczos_lowest",
    "lowest_in_label",
    "group_degenerate",
    "sharpen_spin",
]

DENSE_CAP_DEFAULT = 20000
MAX_MATVECS_DEFAULT = 100000  # the product budget of one Lanczos solve
DEGENERATE_RTOL = 1e-9  # every degenerate grouping: |E - E_first| <= rtol * max(1, |E_first|)


class SolverError(RuntimeError):
    pass


class DimensionCapError(SolverError):
    """Sector too large for a dense solve; use lanczos_lowest instead."""


class NonConvergenceError(SolverError):
    def __init__(self, message: str, best_residual: float) -> None:
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass
class EigenSet:
    """Ascending eigenvalues with matching orthonormal vectors and residuals.

    `matvecs` is the number of H products the solve made (a (dim, k) block
    counts k); it is run telemetry and is not archived.
    """

    values: np.ndarray
    vectors: np.ndarray  # shape (dim, k)
    residuals: np.ndarray
    labels: list[str] | None = None
    matvecs: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.vectors = np.asarray(self.vectors, dtype=float)
        self.residuals = np.asarray(self.residuals, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != len(self.values):
            raise SolverError("vectors must be (dim, k) matching the eigenvalue count")
        if np.all(self.values[:-1] <= self.values[1:]):
            return  # already ascending: the stable sort would copy for nothing
        order = np.argsort(self.values, kind="stable")
        self.values = self.values[order]
        self.vectors = self.vectors[:, order]
        self.residuals = self.residuals[order]
        if self.labels is not None:
            self.labels = [self.labels[i] for i in order]

    @property
    def k(self) -> int:
        return len(self.values)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class DegenerateManifold:
    """Member vectors of one (numerically) degenerate eigenvalue."""

    eigenvalue: float
    vectors: np.ndarray  # shape (dim, g)

    @property
    def multiplicity(self) -> int:
        return self.vectors.shape[1]


def _canonical_sign(vectors: np.ndarray) -> np.ndarray:
    """Flip, in place, each column's sign so its largest-magnitude entry is
    positive; every caller passes an array it owns.  The column extremes
    stand in for a full-size abs; where they tie in magnitude the first
    counts, as with argmax(abs), and only those columns take argmax and
    argmin (which copy a C-ordered block along axis 0)."""
    high, low = vectors.max(axis=0), vectors.min(axis=0)
    flip = -low > high
    for j in np.flatnonzero(-low == high):
        flip[j] = vectors[:, j].argmin() < vectors[:, j].argmax()
    return np.negative(vectors, out=vectors, where=flip)


def _as_matrix(operator):
    """The sparse or dense matrix behind an operator; every product uses `@`."""
    if isinstance(operator, SparseOperator):
        return operator.matrix
    if sp.issparse(operator):
        return operator.tocsr()
    arr = np.asarray(operator, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SolverError("operator must be square")
    return arr


def _symmetry_subspace(
    operator: SparseOperator, c2_parity: int | None, eh_parity: int | None, spin: float | None, name: str
) -> tuple[Projector, sp.csr_matrix]:
    """The (C2, eh) projector of the operator's sector, with spin inversion of
    parity (-1)^S as a third generator where an integer `spin` S is asked of a
    2M_S = 0 sector, and its orthonormal orbit basis Q; an empty subspace is
    an error."""
    basis = operator.basis
    proj = projector(basis, operator.geometry, c2_parity, eh_parity)
    flip = ""
    if spin is not None and basis.sector.twice_ms == 0 and float(spin).is_integer():
        parity = -1 if round(spin) % 2 else 1
        proj = Projector(proj.generators + ((spin_flip_operator(basis), parity),), basis.dim)
        flip = f" at spin-flip parity {parity:+d}"
    q = proj.orbit_basis()
    if q.shape[1] == 0:
        raise SolverError(f"the {name} symmetry subspace of sector {basis.sector} is empty{flip}")
    return proj, q


def _restrict(operator: SparseOperator, subspace: sp.csr_matrix) -> sp.csr_matrix:
    """Q^T H Q, symmetrized, for an orthonormal sparse subspace basis Q."""
    hs = subspace.T @ (operator.matrix @ subspace)
    return (0.5 * (hs + hs.T)).tocsr()


def dense_spectrum(operator, cap: int = DENSE_CAP_DEFAULT) -> EigenSet:
    """All eigenpairs of a Hermitian operator, ascending."""
    mat = _as_matrix(operator)
    if mat.shape[0] > cap:
        raise DimensionCapError(
            f"dimension {mat.shape[0]} exceeds the dense cap {cap}; use lanczos_lowest"
        )
    dense = mat.toarray() if sp.issparse(mat) else mat
    vals, vecs = sla.eigh(dense)
    vecs = _canonical_sign(vecs)
    res = np.linalg.norm(dense @ vecs - vecs * vals[None, :], axis=0)
    return EigenSet(values=vals, vectors=vecs, residuals=res)


def dense_subspace_spectrum(
    operator: SparseOperator,
    c2_parity: int | None,
    eh_parity: int | None,
    spin: float | None = None,
) -> EigenSet:
    """Full spectrum of one (C2, eh) symmetry block of the operator's sector.

    Q^T H Q is diagonalized densely, the vectors are lifted back to sector
    coordinates, degenerate manifolds are rotated to sharp S^2, and with
    `spin` given only the states of that total spin are kept; at 2M_S = 0
    the block is then also the spin-flip block of parity (-1)^S.  Either
    parity may be None to skip that symmetry.
    """
    name = f"(C2 {c2_parity}, eh {eh_parity})"
    _, q = _symmetry_subspace(operator, c2_parity, eh_parity, spin, name)
    m = q.shape[1]
    if m > DENSE_CAP_DEFAULT:
        raise DimensionCapError(f"subspace dimension {m} exceeds the dense cap {DENSE_CAP_DEFAULT}")
    vals, y = sla.eigh(_restrict(operator, q).toarray())
    vecs = _canonical_sign(q @ y)
    res = np.linalg.norm(operator.matrix @ vecs - vecs * vals[None, :], axis=0)
    eig = _sharp_states(EigenSet(values=vals, vectors=vecs, residuals=res), operator.basis, spin)
    if not eig.k:
        raise SolverError(f"no states of total spin {spin} in the {name} symmetry subspace")
    return eig


def lanczos_lowest(
    operator,
    k: int = 1,
    tol: float = 1e-10,
    seed: int = 1,
    max_matvecs: int = MAX_MATVECS_DEFAULT,
) -> EigenSet:
    """Lowest k eigenpairs, one two-pass Lanczos solve per state.

    State i is the lowest of H + sum_{j<i} (c - lambda_j) v_j v_j^T, with c
    above the spectrum of H, so the found states sit at c and a degenerate
    partner is the lowest state of the next solve.  The solve stops with
    NonConvergenceError after about `max_matvecs` products.  Every returned
    vector has its residual ||H x - lambda x|| on the CSR matrix checked
    against `tol`.
    """
    mat = _as_matrix(operator)
    dim = mat.shape[0]
    if k < 1:
        raise SolverError(f"k must be at least 1, got {k}")
    if k > dim:
        raise SolverError(f"requested {k} eigenpairs from a dimension-{dim} sector")
    if k >= dim - 1:  # all states, or all but one: cheaper densely
        return _checked_eigenset(mat, dense_spectrum(mat).vectors[:, :k], tol)
    return list(_lowest_states(operator, k, tol, seed, max_matvecs))[-1]


def _lowest_states(operator, n: int, tol: float, seed: int, max_matvecs: int) -> Iterator[EigenSet]:
    """The lowest 1, 2, ..., n eigenpairs of `lanczos_lowest`, one state more per
    item; each state is solved once, into a (dim, n) buffer that the items view."""
    mat = _as_matrix(operator)
    rng = np.random.default_rng(seed)
    apply = operator if isinstance(operator, SparseOperator) else mat
    vecs = np.empty((mat.shape[0], n), order="F")
    vals, res = np.empty(n), np.empty(n)
    matvecs = 0

    def product(x: np.ndarray) -> np.ndarray:  # H deflated by the i states found
        y = apply @ x
        if i:
            v = vecs[:, :i]
            y += v @ ((c - vals[:i]) * (v.T @ x))
        return y

    for i in range(n):
        if i == 1:  # the shift: above every eigenvalue of H
            c = _gershgorin(mat) + 1.0
        eig = _two_pass(product, mat, rng.standard_normal(len(vecs)), tol, max_matvecs - matvecs)
        vecs[:, i], vals[i], res[i] = eig.vectors[:, 0], eig.values[0], eig.residuals[0]
        matvecs += eig.matvecs
        yield EigenSet(vals[:i + 1], vecs[:, :i + 1], res[:i + 1], matvecs=matvecs)


def _gershgorin(mat) -> float:
    """max_i sum_j |H_ij|.  A CSR matrix sums |data| row by row with the
    `reduceat` that `abs(mat).sum(axis=1)` runs, so the bits are the same,
    without that copy of the data and the column indices."""
    if not sp.issparse(mat):
        return float(np.max(np.abs(mat).sum(axis=1)))
    rows = np.flatnonzero(np.diff(mat.indptr))
    return float(np.max(np.add.reduceat(np.abs(mat.data), mat.indptr[rows]), initial=0.0))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by einsum, not BLAS: a threaded BLAS call leaves its OpenBLAS
    pool spinning, and NumPy's and SciPy's separate pools then stall each
    other's next call (on 2 cores, a 10-site Schmidt SVD right after a
    labeled solve took 85 ms against 9 ms)."""
    return float(np.einsum("i,i->", a, b))


def _recur(
    w: np.ndarray,
    v: np.ndarray,
    v_prev: np.ndarray | None,
    alpha: float,
    beta_prev: float,
    beta: float | None = None,
    x: np.ndarray | None = None,
    y: float = 0.0,
) -> None:
    """The Lanczos update in place: w -= alpha v, then w -= beta_prev v_prev
    unless v_prev is None, then w /= beta and x += y w where given.

    It runs block by block, so each block of w stays in cache through every
    step, and each entry takes the whole-vector steps in the same order.
    The blocks stay on the calling thread: on the row-block pool the 12-site
    2Ag+ block solve ran about a tenth slower (its CSR products then read
    vectors last written on the other core), and the 12-site ground state
    gained nothing.
    """
    step = hamiltonian._BLOCK
    for a in range(0, len(w), step):
        block, b = w[a:a + step], a + step
        block -= alpha * v[a:b]
        if v_prev is not None:
            block -= beta_prev * v_prev[a:b]
        if beta is not None:
            block /= beta
        if x is not None:
            x[a:b] += y * block


def _two_pass(apply, mat, start: np.ndarray, tol: float, max_matvecs: int) -> EigenSet:
    """Lowest eigenpair by two-pass Lanczos from `start`, with products
    `apply(v)` and the true residual checked on `mat`.

    Pass 1 takes at most half the remaining products, so that pass 2 and
    the check fit in the rest.  A Ritz vector that misses `tol` restarts
    the solve while its residual still falls and products remain.  The
    vector updates run in the same order in both passes.
    """
    matvecs, best = 0, np.inf
    while True:
        start = start / math.sqrt(_dot(start, start))
        alpha: list[float] = []
        beta: list[float] = []
        norm = 0.0  # Gershgorin bound of T
        v_prev, v = None, start
        for _ in range(max(1, (max_matvecs - matvecs) // 2)):
            w = apply(v)
            matvecs += 1
            alpha.append(_dot(v, w))
            _recur(w, v, v_prev, alpha[-1], beta[-1] if beta else 0.0)
            beta.append(math.sqrt(_dot(w, w)))
            norm = max(norm, abs(alpha[-1]) + sum(beta[-2:]))
            _, y = sla.eigh_tridiagonal(alpha, beta[:-1], select="i", select_range=(0, 0))
            if beta[-1] * abs(y[-1, 0]) <= tol or beta[-1] <= np.finfo(float).eps * norm:
                break  # converged, or the Krylov space is invariant
            w /= beta[-1]
            v_prev, v = v, w
        # pass 2: the recursion again, with the stored coefficients
        x = y[0, 0] * start
        v_prev, v = None, start
        for j in range(len(alpha) - 1):
            w = apply(v)
            matvecs += 1
            _recur(w, v, v_prev, alpha[j], beta[j - 1] if j else 0.0, beta[j], x, y[j + 1, 0])
            v_prev, v = v, w
        vecs, vals, res = _rayleigh(mat, _canonical_sign(x[:, None]))
        matvecs += 1
        if res[0] <= tol:
            return EigenSet(values=vals, vectors=vecs, residuals=res, matvecs=matvecs)
        if res[0] >= best or max_matvecs - matvecs < 2:
            raise NonConvergenceError(
                f"two-pass Lanczos missed the residual tolerance {tol:.1e} "
                f"after {matvecs} products",
                float(min(best, res[0])),
            )
        best, start = float(res[0]), vecs[:, 0]


def _rayleigh(mat, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit columns, their Rayleigh quotients and true residuals on `mat`."""
    x = x / np.linalg.norm(x, axis=0)
    hx = mat @ x
    vals = np.einsum("ij,ij->j", x, hx)
    return x, vals, np.linalg.norm(hx - x * vals, axis=0)


def _checked_eigenset(mat, vecs: np.ndarray, tol: float) -> EigenSet:
    """Eigenpairs from approximate eigenvectors, each with its true residual
    on `mat` checked against `tol`; the check's products are counted."""
    vecs, vals, res = _rayleigh(mat, vecs)
    if res.max() > tol:
        raise NonConvergenceError(
            f"{int(np.sum(res > tol))} of {len(vals)} eigenpairs miss the residual tolerance {tol:.1e}",
            float(res.min()),
        )
    return EigenSet(values=vals, vectors=vecs, residuals=res, matvecs=len(vals))


def _degenerate_ranges(values: np.ndarray, rel_tol: float = DEGENERATE_RTOL) -> Iterator[tuple[int, int]]:
    """Index ranges [i, j) of the greedy grouping of consecutive values that
    lie within rel_tol * max(1, |values[i]|) of each group's first value."""
    i = 0
    while i < len(values):
        ref = values[i]
        j = i + 1
        while j < len(values) and abs(values[j] - ref) <= rel_tol * max(1.0, abs(ref)):
            j += 1
        yield i, j
        i = j


def group_degenerate(eigenset: EigenSet, rel_tol: float = DEGENERATE_RTOL) -> list[DegenerateManifold]:
    """Greedy grouping of consecutive eigenvalues into degenerate manifolds."""
    return [
        DegenerateManifold(float(eigenset.values[i]), eigenset.vectors[:, i:j].copy())
        for i, j in _degenerate_ranges(eigenset.values, rel_tol)
    ]


def sharpen_spin(eigenset: EigenSet, basis: BasisTable) -> EigenSet:
    """Rotate each degenerate manifold so that every vector has sharp S^2.

    The S^2 matrix elements within a manifold follow from the raised images,
    <v_i| S^2 |v_j> = M(M+1) delta_ij + <S+ v_i | S+ v_j>.
    """
    m = basis.sector.twice_ms / 2.0
    vectors = eigenset.vectors.copy()
    raising = None  # built at the first degenerate manifold
    for i, j in _degenerate_ranges(eigenset.values):
        if j - i > 1:
            if raising is None:
                raising = raising_operator(basis)
            block = vectors[:, i:j]
            images = raising @ block
            _, rot = sla.eigh(m * (m + 1.0) * np.eye(j - i) + images.T @ images)
            vectors[:, i:j] = block @ rot
    return EigenSet(
        values=eigenset.values.copy(),
        vectors=_canonical_sign(vectors),
        residuals=eigenset.residuals.copy(),
        labels=list(eigenset.labels) if eigenset.labels else None,
    )


def _sharp_states(eig: EigenSet, basis: BasisTable, spin: float | None, k: int | None = None) -> EigenSet:
    """`sharpen_spin`, then with `spin` given the lowest k states (all where k
    is None) of that sharp total spin; states of mixed spin are skipped."""
    eig = sharpen_spin(eig, basis)
    if spin is None:
        return eig
    keep = []
    for i, s2 in enumerate(spin_squared(eig.vectors, basis)):  # <S^2> of every state from one product
        with contextlib.suppress(MixedSpinError):
            if abs(_spin_of(s2, basis.sector.twice_ms) - spin) < 0.25:
                keep.append(i)
    keep = keep[:k]
    return EigenSet(values=eig.values[keep], vectors=eig.vectors[:, keep], residuals=eig.residuals[keep])


def lowest_in_label(
    operator: SparseOperator,
    label: SymmetryLabel,
    k: int = 1,
    tol: float = 1e-10,
    seed: int = 1,
) -> EigenSet:
    """Lowest k eigenstates carrying a (C2, eh, S) label.

    The Lanczos solve runs on Q^T H Q, with Q the orthonormal orbit basis
    of the requested (C2, eh) subspace, spin-flip even too for a singlet
    label, and the vectors are lifted back to sector coordinates; the
    sector must be the label's highest-weight sector (2M_S = 2S).  The
    block's states are drawn one at a time, each solved once, up to k + 40,
    until k of them carry the label's total spin.  Each drawn state is
    lifted and its residual checked on the full H once; `matvecs` counts
    the block products and one check per drawn state.
    """
    if k < 1:
        raise SolverError(f"k must be at least 1, got {k}")
    basis = operator.basis
    if basis.sector.twice_ms != label.twice_ms_highest:
        raise SolverError(
            f"label {format_label(label)} is solved in the 2M_S = {label.twice_ms_highest} sector, "
            f"but the operator was built for 2M_S = {basis.sector.twice_ms}"
        )
    proj, q = _symmetry_subspace(
        operator, label.c2_parity, label.eh_parity, label.total_spin, format_label(label)
    )
    n = min(q.shape[1], k + 40)
    vecs, vals, res = np.empty((q.shape[0], n), order="F"), np.empty(n), np.empty(n)
    prev = np.empty(0)
    for i, sub in enumerate(_lowest_states(_restrict(operator, q), n, tol, seed, MAX_MATVECS_DEFAULT)):
        # the new state's column, after the found values it ties: the first to differ from the previous item
        j = int(np.argmax(np.append(sub.values[:-1] != prev, True)))
        new = _checked_eigenset(operator.matrix, _canonical_sign(q @ sub.vectors[:, j:j + 1]), tol)
        vecs[:, i], vals[i], res[i] = new.vectors[:, 0], new.values[0], new.residuals[0]
        prev = sub.values
        eig = _sharp_states(EigenSet(vals[:i + 1], vecs[:, :i + 1], res[:i + 1]), basis, label.total_spin, k)
        if eig.k == k:
            break
    else:
        raise SolverError(
            f"found only {eig.k} of {k} states with label {format_label(label)} "
            f"among the lowest {n} of the symmetry subspace"
        )
    drift = float(np.max(np.linalg.norm(proj.apply(eig.vectors) - eig.vectors, axis=0), initial=0.0))
    if drift > 1e-8:
        raise SolverError(f"projection drift {drift:.2e} exceeds 1e-8; increase tol")
    return EigenSet(eig.values, eig.vectors, eig.residuals, [format_label(label)] * k, sub.matvecs + i + 1)
