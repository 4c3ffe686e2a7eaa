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
the CPU count or the block size.  For k > 1 each further state is the
lowest of H with the found states shifted above its spectrum (Hotelling
deflation), so a degenerate partner is simply the next state found; its
Ritz vector is projected off the found states, whose small components would
otherwise keep its residual on H above `tol`.  The true residual is then
checked on the CSR `matrix`, an independent form of the same H, and a miss
restarts from the Ritz vector.  Start vectors come from a seeded generator in
state order, which makes solves reproducible and a k-state solve the prefix
of a larger one; every solve returns its count of H products.

Symmetry blocks have one path, `_symmetry_block`: the block of
`symmetry.projector` (C2, eh, and spin inversion of parity (-1)^S where a
total spin S is asked of a 2M_S = 0 sector; a singlet block is about an
eighth of the sector), its sparse orthonormal orbit basis Q, and Q^T H Q
read off the rows of H at the orbit representatives, used as read.
`dense_subspace_spectrum` diagonalizes that block densely; `lowest_in_label`
takes each Lanczos state as the stream draws it, up to k + 40, and lifts it
with Q and checks it on the full H once.  Each builds the sparse S+ of
`symmetry.raising_operator` once, raises each state once, and ends in the
spin step on those images, `sharpen_spin`: it rotates each degenerate
manifold to sharp S^2 from the Gram matrix of its images and keeps the
states of one total spin, read by `symmetry`'s rule, as `total_spin` reads
it.  A dense block does that in column chunks of about _CHUNK lifted
entries that end on manifold boundaries, each lifted, raised, sharpened and
checked on the full H on its own, so no (dim, block) lift is held; every
column is computed alone and a spin step mixes only the columns of one
manifold, so the chunks change no bit.
`lowest_in_label` takes the first k and checks them against the projector P
itself, not Q: `P @ block` must leave every vector within 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import hamiltonian
from .basis import BasisTable
from .hamiltonian import SparseOperator
from .symmetry import (
    Projector,
    SymmetryLabel,
    _spin_of,
    _spin_squares,
    check_model_block,
    format_label,
    projector,
    raising_operator,
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
_CHUNK = 1 << 18  # entries of one `_column_chunks` chunk: the memory/time knee of a sweep (CHANGES.md)


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

    `values` and `vectors` are read-only views (a write raises ValueError),
    so the entropies `analysis` keeps per cut in `_entropies` cannot go stale.
    `matvecs` is the number of H products the solve made (a (dim, k) block
    counts k); it is run telemetry and is not archived.
    """

    values: np.ndarray
    vectors: np.ndarray  # shape (dim, k)
    residuals: np.ndarray
    labels: list[str] | None = None
    matvecs: int = 0
    _entropies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.vectors = np.asarray(self.vectors, dtype=float)
        self.residuals = np.asarray(self.residuals, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != len(self.values):
            raise SolverError("vectors must be (dim, k) matching the eigenvalue count")
        if not np.all(self.values[:-1] <= self.values[1:]):  # ascending needs no sort, and no copy
            order = np.argsort(self.values, kind="stable")
            self.values = self.values[order]
            self.vectors = self.vectors[:, order]
            self.residuals = self.residuals[order]
            if self.labels is not None:
                self.labels = [self.labels[i] for i in order]
        self.values, self.vectors = self.values.view(), self.vectors.view()
        self.values.flags.writeable = self.vectors.flags.writeable = False

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


def _symmetry_block(
    operator: SparseOperator, c2_parity: int | None, eh_parity: int | None, spin: float | None, name: str
) -> tuple[Projector, sp.csr_matrix, sp.csr_matrix]:
    """The `symmetry.projector` block P of the operator's sector, its orbit
    basis Q and Q^T H Q, used as read (symmetric to rounding); an empty block
    is an error.  H Q stays in the block, so (Q^T H Q)[a, b] = (H Q)[rep_a, b]
    / Q[rep_a, a], with rep_a the first row of column a: only those rows of H
    are read."""
    check_model_block(operator.model, eh_parity)
    proj = projector(operator.basis, operator.geometry, c2_parity, eh_parity, spin)
    q = proj.orbit_basis()
    if q.shape[1] == 0:
        at = "" if spin is None else f" for total spin {spin:g}"
        raise SolverError(f"the {name} symmetry subspace of sector {operator.basis.sector} is empty{at}")
    # one entry per kept row, and the columns come in the order of their first rows
    first = np.flatnonzero(np.diff(np.maximum.accumulate(q.indices), prepend=-1))
    hs = operator.matrix[np.flatnonzero(np.diff(q.indptr))[first]] @ q
    hs.data *= np.repeat(1.0 / q.data[first], np.diff(hs.indptr))
    hs.sort_indices()  # each block product sums its row in column order, whatever SciPy's product left
    return proj, q, hs


def dense_spectrum(operator) -> EigenSet:
    """All eigenpairs of a Hermitian operator of at most DENSE_CAP_DEFAULT
    states, ascending.  `eigh` overwrites its Fortran-ordered copy of a sparse
    operator, never a dense array passed in; the residuals are taken on the
    operator as given, in the column chunks of `_column_chunks`."""
    mat = _as_matrix(operator)
    if mat.shape[0] > DENSE_CAP_DEFAULT:
        raise DimensionCapError(
            f"dimension {mat.shape[0]} exceeds the dense cap {DENSE_CAP_DEFAULT}; use lanczos_lowest"
        )
    if sp.issparse(mat):
        vals, vecs = sla.eigh(mat.toarray(order="F"), overwrite_a=True)
    else:
        vals, vecs = sla.eigh(mat)
    vecs = _canonical_sign(vecs)
    res = np.empty(len(vals))
    for run in _column_chunks(_degenerate_ranges(vals), len(vals)):
        a, b = run[0][0], run[-1][1]
        res[a:b] = _residual_norms(mat, vecs[:, a:b], vals[a:b])
    return EigenSet(values=vals, vectors=vecs, residuals=res)


def dense_subspace_spectrum(
    operator: SparseOperator,
    c2_parity: int | None,
    eh_parity: int | None,
    spin: float | None = None,
) -> EigenSet:
    """Full spectrum of one (C2, eh) symmetry block of the operator's sector.

    Q^T H Q is diagonalized densely and its eigenvectors are taken in the
    column chunks of `_column_chunks`: each chunk is lifted back to sector
    coordinates, its manifolds are rotated to sharp S^2, with `spin` only
    the states of that total spin are kept (at 2M_S = 0 the block is then
    the spin-flip block of parity (-1)^S), and the kept states and their
    residuals are written into the head of arrays sized for the whole
    block, which are then cut to the states kept.  Either parity may be
    None to skip a symmetry.
    """
    name = f"(C2 {c2_parity}, eh {eh_parity})"
    _, q, block = _symmetry_block(operator, c2_parity, eh_parity, spin, name)
    m = block.shape[0]
    if m > DENSE_CAP_DEFAULT:
        raise DimensionCapError(f"subspace dimension {m} exceeds the dense cap {DENSE_CAP_DEFAULT}")
    vals, y = sla.eigh(block.toarray(order="F"), overwrite_a=True)
    raising, n = raising_operator(operator.basis), 0
    # the kept states fill the head of each; the rest is never written
    values, rows, residuals = np.empty(m), np.empty((m, q.shape[0])), np.empty(m)
    for run in _column_chunks(_degenerate_ranges(vals), q.shape[0]):
        a, b = run[0][0], run[-1][1]
        lifted = q @ y[:, a:b]
        part = sharpen_spin(
            EigenSet(vals[a:b], lifted, np.zeros(b - a)), raising @ lifted, operator.basis, spin
        )
        del lifted  # not held through the residuals
        values[n:n + part.k], rows[n:n + part.k] = part.values, part.vectors.T
        residuals[n:n + part.k] = _residual_norms(operator.matrix, part.vectors, part.values)
        n += part.k
    if not n:
        raise SolverError(f"no states of total spin {spin} in the {name} symmetry subspace")
    rows.resize((n, q.shape[0]), refcheck=False)  # in place: the unwritten rows are given back
    return EigenSet(values[:n], rows.T, residuals[:n])


def lanczos_lowest(operator, k: int = 1, tol: float = 1e-10, seed: int = 1) -> EigenSet:
    """Lowest k eigenpairs, one two-pass Lanczos solve per state.

    State i is the lowest of H + sum_{j<i} (c - lambda_j) v_j v_j^T, with c
    above the spectrum of H, so the found states sit at c and a degenerate
    partner is the lowest state of the next solve.  The solve stops with
    NonConvergenceError after about MAX_MATVECS_DEFAULT products.  Every
    returned vector has its residual ||H x - lambda x|| on the CSR matrix
    checked against `tol`.
    """
    mat = _as_matrix(operator)
    dim = mat.shape[0]
    if k < 1:
        raise SolverError(f"k must be at least 1, got {k}")
    if k > dim:
        raise SolverError(f"requested {k} eigenpairs from a dimension-{dim} sector")
    if k >= dim - 1:  # all states, or all but one: cheaper densely
        return _checked_eigenset(mat, dense_spectrum(mat).vectors[:, :k], tol)
    *_, (vals, vecs, res, matvecs) = _lowest_states(operator, k, tol, seed)
    return EigenSet(vals, vecs, res, matvecs=matvecs)


def _lowest_states(operator, n: int, tol: float, seed: int) -> Iterator[tuple]:
    """The states of `lanczos_lowest` in the order drawn, each solved once into
    a (dim, n) buffer: item i is (values, vectors, residuals) of its first
    i + 1 states, unsorted views, and the products made so far."""
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
        budget = MAX_MATVECS_DEFAULT - matvecs
        eig = _two_pass(product, mat, rng.standard_normal(len(vecs)), tol, budget, vecs[:, :i])
        vecs[:, i], vals[i], res[i] = eig.vectors[:, 0], eig.values[0], eig.residuals[0]
        matvecs += eig.matvecs
        yield vals[:i + 1], vecs[:, :i + 1], res[:i + 1], matvecs


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
    other's next call (timings in CHANGES.md)."""
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
    The blocks stay on the calling thread: on the row-block pool the CSR
    products of a block solve then read vectors last written on the other
    core, and ran slower (CHANGES.md).
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


def _two_pass(apply, mat, start: np.ndarray, tol: float, max_matvecs: int, found: np.ndarray) -> EigenSet:
    """Lowest eigenpair by two-pass Lanczos from `start`, with products
    `apply(v)` and the true residual checked on `mat` after projecting the
    Ritz vector off `found`, the orthonormal states `apply` deflates.

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
        x -= found @ (found.T @ x)
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


def _degenerate_ranges(values: np.ndarray) -> Iterator[tuple[int, int]]:
    """Index ranges [i, j) of the greedy grouping of consecutive values that
    lie within DEGENERATE_RTOL * max(1, |values[i]|) of each group's first value."""
    i = 0
    while i < len(values):
        ref = values[i]
        j = i + 1
        while j < len(values) and abs(values[j] - ref) <= DEGENERATE_RTOL * max(1.0, abs(ref)):
            j += 1
        yield i, j
        i = j


def _column_chunks(ranges: Iterable[tuple[int, int]], dim: int) -> Iterator[list[tuple[int, int]]]:
    """Runs of consecutive ranges [i, j) (ascending and adjacent, as
    `_degenerate_ranges` gives them) whose columns of `dim` entries hold at
    most _CHUNK entries together, or one range that alone holds more: a
    chunk ends on a range boundary, so no degenerate manifold is split."""
    width, run = max(1, _CHUNK // max(1, dim)), []
    for i, j in ranges:
        if run and j - run[0][0] > width:
            yield run
            run = []
        run.append((i, j))
    if run:
        yield run


def _residual_norms(mat, vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """||H v - lambda v|| of every column, summed down the column in row
    order as `np.linalg.norm(axis=0)` sums two or more C-ordered columns; it
    sums a lone column pairwise, which would tie the bits to the chunk width."""
    r = mat @ vectors
    r -= vectors * values
    r *= r
    return np.sqrt(np.cumsum(r, axis=0, out=r)[-1])


def group_degenerate(eigenset: EigenSet) -> list[DegenerateManifold]:
    """Greedy grouping of consecutive eigenvalues into degenerate manifolds (DEGENERATE_RTOL)."""
    return [
        DegenerateManifold(float(eigenset.values[i]), eigenset.vectors[:, i:j].copy())
        for i, j in _degenerate_ranges(eigenset.values)
    ]


def sharpen_spin(
    eigenset: EigenSet, images: np.ndarray, basis: BasisTable, spin: float | None = None
) -> EigenSet:
    """Rotate each degenerate manifold so that every vector has sharp S^2,
    and with `spin` given keep only the states of that total spin.

    `images` is S+ of the columns, raised once by the caller.  Within a
    manifold <v_i| S^2 |v_j> = M(M+1) delta_ij + <S+ v_i | S+ v_j>, so a
    rotated state's <S^2> is a Gram eigenvalue and a lone state's is
    `symmetry._spin_squares`; `symmetry._spin_of` reads S off each.
    """
    m, twice_ms = basis.sector.twice_ms / 2.0, basis.sector.twice_ms
    s2 = _spin_squares(images, twice_ms)
    vectors = eigenset.vectors.copy()
    for i, j in _degenerate_ranges(eigenset.values):
        if j - i > 1:
            gram = images[:, i:j].T @ images[:, i:j]
            s2[i:j], rot = sla.eigh(m * (m + 1.0) * np.eye(j - i) + gram)
            vectors[:, i:j] = vectors[:, i:j] @ rot
    del images  # the caller's temporary, freed before the kept columns are copied
    keep = range(eigenset.k)
    if spin is not None:
        keep = np.flatnonzero(_spin_of(s2, twice_ms) == spin)
        vectors = vectors[:, keep]
    return EigenSet(
        values=eigenset.values[keep], vectors=_canonical_sign(vectors), residuals=eigenset.residuals[keep]
    )


def lowest_in_label(
    operator: SparseOperator,
    label: SymmetryLabel,
    k: int = 1,
    tol: float = 1e-10,
    seed: int = 1,
) -> EigenSet:
    """Lowest k eigenstates carrying a (C2, eh, S) label.

    The Lanczos solve runs on Q^T H Q, with Q the orthonormal orbit basis
    of the label's `symmetry.projector` block (spin-flip even too for a
    singlet), and the vectors are lifted back to sector coordinates; the
    sector must be the label's highest-weight sector (2M_S = 2S).  The
    block's states are taken in the order the stream draws them, each solved
    once, up to k + 40, until k of them carry the label's total spin.  Each
    drawn state is lifted, checked on the full H and raised by S+ once; only
    the states drawn so far are held, and the spin step reruns on them after
    each draw.  `matvecs` counts the block products and one check per state.
    """
    if k < 1:
        raise SolverError(f"k must be at least 1, got {k}")
    basis = operator.basis
    if basis.sector.twice_ms != label.twice_ms_highest:
        raise SolverError(
            f"label {format_label(label)} is solved in the 2M_S = {label.twice_ms_highest} sector, "
            f"but the operator was built for 2M_S = {basis.sector.twice_ms}"
        )
    proj, q, block = _symmetry_block(
        operator, label.c2_parity, label.eh_parity, label.total_spin, format_label(label)
    )
    n, raising, states = min(q.shape[1], k + 40), raising_operator(basis), []
    for i, (_, drawn, _, matvecs) in enumerate(_lowest_states(block, n, tol, seed)):  # column i: drawn last
        new = _checked_eigenset(operator.matrix, _canonical_sign(q @ drawn[:, i:i + 1]), tol)
        states.append((new.values[0], new.vectors, new.residuals[0], raising @ new.vectors))
        states.sort(key=lambda state: state[0])  # stable, as EigenSet sorts
        vals, vecs, res, images = zip(*states)
        eig = sharpen_spin(EigenSet(vals, np.hstack(vecs), res), np.hstack(images), basis, label.total_spin)
        if eig.k >= k:
            break
    else:
        raise SolverError(
            f"found only {eig.k} of {k} states with label {format_label(label)} "
            f"among the lowest {n} of the symmetry subspace"
        )
    kept = eig.vectors[:, :k]
    drift = float(np.max(np.linalg.norm(proj.apply(kept) - kept, axis=0), initial=0.0))
    if drift > 1e-8:
        raise SolverError(f"projection drift {drift:.2e} exceeds 1e-8; increase tol")
    return EigenSet(eig.values[:k], kept, eig.residuals[:k], [format_label(label)] * k, matvecs + i + 1)
