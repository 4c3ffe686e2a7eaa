"""Two-fold reflection, electron-hole conjugation, spin inversion, and spin
diagnostics.

Every operator here is a `scipy.sparse.csr_matrix` on a sector and is
applied with `@`.  The three discrete symmetries are signed permutation
matrices, with entry sign[i] at (perm[i], i), so projections and
symmetry-adapted subspace bases stay sparse.  Each is an involution, and
the three commute.

Conventions (all signs follow the canonical operator ordering of the basis
module):

* The reflection permutes sites by the geometry's declared two-fold
  permutation.  On fermions it is the Kronecker product of the two
  channels' signed permutations, each sign the parity of re-sorting that
  channel's creation operators.  In half-filled sectors the overall phase
  is fixed so the alternating covalent (Neel type) reference configuration
  maps with coefficient +1.
* The electron-hole operation conjugates c+_{i,up} -> (-1)^i c_{i,dn}
  (site 1 odd), i.e. the particle-hole transformation combined with the
  pi spin rotation that keeps every half-filled (N_e, M_S) sector inside
  itself.  It exists on alternant geometries only.  Its phase is one
  constant, fixed to +1 by the covalent reference, so its matrix is a
  plain permutation.
* Spin inversion exists on 2M_S = 0 sectors only.  It is the pi rotation
  about the y axis, whose parity on a state of total spin S is (-1)^S, so
  singlets are even.  On fermions it maps (up, dn) to (dn, up), the
  transpose of the Kronecker layout; the re-sorting sign (-1)^(N_up N_dn)
  and the rotation's (-1)^N_dn cancel at N_up = N_dn, so its sector sign
  is +1.  On n spins s it maps each digit d to 2s - d with the sector sign
  (-1)^(n s).

One rule, `check_block`, says whether a (C2, eh) block exists: each parity
is +1, -1 or None (generator skipped), C2 needs the geometry's declared
permutation, and eh a half-filled fermionic sector on an alternant bond
graph.  The two operators, `projector` and the run config all ask it, so an
impossible block is refused before any Hamiltonian is built.  Every
generator must also commute with the model's H, which `check_model_block`
asks of eh (the run config and the solver's block build ask it).  A
`Projector` is its tuple of (signed permutation, character) generators,
which only `projector` chooses: C2, eh, then spin inversion of character
(-1)^S where an integer total spin S is asked of a 2M_S = 0 sector.

Total spin has one path: `raising_operator` is S+ as a sparse matrix from a
sector to its 2M_S + 2 sector, and every <S^2> = M_S(M_S + 1) + |S+ v|^2 is
formed with it, by `spin_squared` (for `total_spin` and `classify`) or by
the solver's one spin step, `solver.sharpen_spin`, on the images its block
solve raised (S+ is built once per block solve).  On fermions S+ is a sum
of channel Kronecker products, (-1)^{N_up} sum_i c+_{i,up} ⊗ c_{i,dn},
built from the basis module's annihilators; on spins it is sqrt(sum_i R_i)
of its raisers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
import scipy.sparse as sp

from .basis import (
    BasisTable,
    FermionState,
    Sector,
    _annihilator,
    _masks_with_popcount,
    _occupancy,
    _raiser,
    _reorder_sign,
    _spin_codes,
)
from .lattice import Geometry

SPIN_TOL = 1e-6  # |<S^2> - S(S+1)| of a state of sharp total spin S

__all__ = [
    "SymmetryLabel",
    "SymmetryError",
    "MixedSpinError",
    "Projector",
    "check_block",
    "check_model_block",
    "c2_operator",
    "eh_operator",
    "spin_flip_operator",
    "projector",
    "spin_occurs",
    "spin_squared",
    "total_spin",
    "raising_operator",
    "parse_label",
    "format_label",
    "classify",
]


class SymmetryError(ValueError):
    """Requested symmetry unavailable for this geometry or sector."""


class MixedSpinError(SymmetryError):
    """<S^2> is not consistent with any total-spin eigenvalue."""


@dataclass(frozen=True)
class SymmetryLabel:
    """(C2 parity, electron-hole parity, total spin) of an eigenstate."""

    c2_parity: int
    eh_parity: int
    total_spin: float

    def __post_init__(self) -> None:
        if self.c2_parity not in (-1, 1) or self.eh_parity not in (-1, 1):
            raise SymmetryError("parities must be +1 or -1")
        if self.total_spin < 0 or round(2 * self.total_spin) != 2 * self.total_spin:
            raise SymmetryError(f"total_spin must be a non-negative half-integer, got {self.total_spin}")

    @property
    def multiplicity(self) -> int:
        return round(2 * self.total_spin) + 1

    @property
    def twice_ms_highest(self) -> int:
        """2*M_S of the highest-weight member, the sector used for solving."""
        return round(2 * self.total_spin)


def format_label(label: SymmetryLabel) -> str:
    spatial = "Ag" if label.c2_parity > 0 else "Bu"
    return f"{label.multiplicity}_{spatial}{'+' if label.eh_parity > 0 else '-'}"


def parse_label(text: str) -> SymmetryLabel:
    """Parse strings like '1_Ag+', '3_Bu+', '1_Bu-'."""
    try:
        mult_s, rest = text.split("_", 1)
        mult = int(mult_s)
        spatial, sign = rest[:2], rest[2:]
        if spatial not in ("Ag", "Bu") or sign not in ("+", "-") or mult < 1:
            raise ValueError
    except (ValueError, IndexError):
        raise SymmetryError(f"cannot parse symmetry label {text!r}") from None
    return SymmetryLabel(
        c2_parity=1 if spatial == "Ag" else -1,
        eh_parity=1 if sign == "+" else -1,
        total_spin=(mult - 1) / 2,
    )


def _channel_permutation(masks: np.ndarray, n_sites: int, perm: tuple[int, ...]) -> sp.csr_matrix:
    """Signed permutation matrix of a site permutation on one spin channel.

    The sign is the parity of re-sorting the mapped (ascending-occupied)
    creation-operator list: the number of occupied site pairs whose order
    the permutation inverts.
    """
    occ = _occupancy(masks, n_sites)
    image = np.asarray(perm, dtype=np.int64) - 1
    new = (occ.astype(np.uint64) << image.astype(np.uint64)).sum(axis=1, dtype=np.uint64)
    return _signed_permutation(np.searchsorted(masks, new), _reorder_sign(occ, image))


def _signed_permutation(perm: np.ndarray, sign: np.ndarray) -> sp.csr_matrix:
    """The matrix of e_i -> sign[i] e_{perm[i]}: entry sign[i] at (perm[i], i)."""
    dim = len(perm)
    return sp.csr_matrix((sign, (perm, np.arange(dim))), shape=(dim, dim))


def c2_operator(basis: BasisTable, geometry: Geometry) -> sp.csr_matrix:
    """Signed permutation matrix of the declared two-fold symmetry on a sector.

    On fermions it is the Kronecker product of the two channels' signed
    permutations.  For half-filled fermionic sectors the overall operator
    phase is fixed so that the alternating covalent reference configuration
    maps with coefficient +1.  That matches the parity labels of
    spin-adapted bases: at M_S = 0 it coincides with the raw
    operator-reordering parity, while in polarized sectors it absorbs the
    constant sign the re-sorting of unequal up/down channels would
    otherwise attach to every state.
    """
    check_block(geometry, basis.sector, 1, None)
    perm = geometry.c2_perm
    n = basis.n_sites
    if basis.kind == "fermion":
        up, dn = (_channel_permutation(masks, n, perm) for masks in (basis.up_masks, basis.dn_masks))
        c2 = sp.kron(up, dn, format="csr")
        if basis.sector.n_electrons == n and c2[:, [_reference_index(basis)]].sum() < 0:
            c2 = -c2
        return c2
    shifts = 2 * (np.asarray(perm, dtype=np.uint64) - np.uint64(1))
    new = (basis.digit_matrix().astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)
    return _signed_permutation(np.searchsorted(basis.spin_codes, new), np.ones(basis.dim))


def _neel_reference(n_sites: int, n_up: int) -> tuple[int, int]:
    """Covalent reference masks: up on odd sites, extra up spins filled from
    the even sites in ascending order."""
    ups = [*range(1, n_sites + 1, 2), *range(2, n_sites + 1, 2)][:n_up]
    up_mask = sum(1 << (s - 1) for s in ups)
    dn_mask = ((1 << n_sites) - 1) ^ up_mask
    return up_mask, dn_mask


def _reference_index(basis: BasisTable) -> int:
    """Position of the covalent reference configuration in a half-filled sector."""
    return basis.index_of(FermionState(*_neel_reference(basis.n_sites, basis.sector.n_up)))


def eh_operator(basis: BasisTable, geometry: Geometry) -> sp.csr_matrix:
    """Electron-hole conjugation (with spin rotation) on a half-filled sector
    of an alternant geometry, as a permutation matrix.

    The map sends (up, dn) to (complement of dn, complement of up).  Its
    phase is the same for every state, and the covalent reference, which
    the map leaves in place, fixes it to +1, so every entry is +1.
    """
    check_block(geometry, basis.sector, None, 1)
    full = np.uint64((1 << basis.n_sites) - 1)
    # state (i_up, i_dn) -> (position of comp(dn), position of comp(up))
    new_iu = np.searchsorted(basis.up_masks, basis.dn_masks ^ full)
    new_id = np.searchsorted(basis.dn_masks, basis.up_masks ^ full)
    perm = (new_iu[None, :] * len(basis.dn_masks) + new_id[:, None]).reshape(-1)
    return _signed_permutation(perm, np.ones(basis.dim))


def spin_flip_operator(basis: BasisTable) -> sp.csr_matrix:
    """Spin inversion on a 2M_S = 0 sector, of parity (-1)^S on a state of
    total spin S, as a signed permutation matrix (signs in the module
    docstring).  There the up and down mask lists are the same, so on
    fermions it transposes the Kronecker layout."""
    if basis.sector.twice_ms != 0:
        raise SymmetryError(f"spin inversion needs 2M_S = 0, got 2M_S = {basis.sector.twice_ms}")
    if basis.kind == "fermion":
        n = len(basis.up_masks)
        return _signed_permutation(np.arange(basis.dim).reshape(n, n).T.reshape(-1), np.ones(basis.dim))
    twice, n = basis.twice_site_spin, basis.n_sites
    shifts = 2 * np.arange(n, dtype=np.uint64)
    new = ((twice - basis.digit_matrix()).astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)
    sign = (-1.0) ** (n * twice // 2)
    return _signed_permutation(np.searchsorted(basis.spin_codes, new), np.full(basis.dim, sign))


def check_block(geometry: Geometry, sector: Sector, c2_parity: int | None, eh_parity: int | None) -> None:
    """Raise SymmetryError unless the (C2, eh) block exists: a parity is +1,
    -1 or None (generator skipped), C2 needs the geometry's two-fold
    permutation, and eh a half-filled fermionic sector (N_e = n_sites) on an
    alternant bond graph.  It reads no basis, so a config is checked at load."""
    for name, parity in (("C2", c2_parity), ("electron-hole", eh_parity)):
        if parity not in (1, -1, None):
            raise SymmetryError(f"{name} parity must be +1, -1 or None, got {parity!r}")
    if c2_parity is not None and geometry.c2_perm is None:
        raise SymmetryError(f"geometry {geometry.name!r} declares no two-fold symmetry")
    if eh_parity is None:
        return
    for i, j in geometry.bonds:
        if (i + j) % 2 == 0:
            raise SymmetryError(
                "electron-hole symmetry needs an alternant bond graph "
                f"(bond ({i},{j}) connects same-parity sites)"
            )
    n, n_e = geometry.n_sites, sector.n_electrons
    if n_e is None:
        raise SymmetryError("electron-hole conjugation is only defined for fermionic bases")
    if n_e != n:
        raise SymmetryError(f"electron-hole conjugation needs half filling (N_e = {n}), got N_e = {n_e}")


def check_model_block(model, eh_parity: int | None) -> None:
    """Raise SymmetryError where eh is asked of a model H it does not commute
    with: n -> 2 - n keeps the PPP term (n_i - z)(n_j - z) only at z = 1.
    C2 and spin inversion commute with every model H."""
    if eh_parity is not None and model.kind == "ppp" and model.z != 1.0:
        raise SymmetryError(f"electron-hole symmetry needs z = 1 in the PPP model, got z = {model.z:g}")


class Projector:
    """prod_g (1 + chi_g g)/2 onto one symmetry-adapted subspace of a sector,
    over commuting involutions: (signed permutation matrix g, character
    chi_g) generators, C2 first, then eh, then spin inversion."""

    def __init__(self, generators: tuple[tuple[sp.csr_matrix, int], ...], dim: int) -> None:
        self.generators = generators
        self.dim = dim

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Project a sector vector, or every column of a (dim, k) block; the
        factors act right to left, the last generator's first."""
        out = v
        for op, parity in reversed(self.generators):
            out = 0.5 * (out + parity * (op @ out))
        return out

    def orbit_basis(self) -> sp.csr_matrix:
        """Sparse orthonormal basis of the projector's range.

        Projected basis vectors supported on disjoint group orbits are
        orthogonal, so normalizing the projection of each orbit's smallest
        index gives an orthonormal basis, ordered by that index, with one
        entry in each row of a kept orbit.  Every group element is an
        involution, so P is symmetric and the entry of state j is
        sum_g chi_g g[rep, j] / |G| over the elements that map j to its
        representative rep.  The elements are visited one at a time, each one
        generator from the last (a Gray-code walk), and a running minimum over
        them finds rep and sums that entry; nothing of size |G| x dim is held.
        """
        # group element g: e_i -> s_g[i] e_{p_g[i]}, with the parity character
        # folded into the sign.  A generator is a symmetric signed permutation
        # (an involution), so row i of its CSR holds its one entry, sign[i],
        # in column perm[i].
        perm, sign = np.arange(self.dim), np.ones(self.dim)
        rep, coef = perm.copy(), sign.copy()  # the identity element
        for step in range(1, 2 ** len(self.generators)):
            # Gray code: step toggles the generator of its lowest set bit
            op, parity = self.generators[(step & -step).bit_length() - 1]
            sign *= op.data[perm]
            if parity < 0:
                np.negative(sign, out=sign)
            perm = op.indices[perm]
            np.add(coef, sign, out=coef, where=perm == rep)  # sums of +-1: exact in any order
            np.copyto(coef, sign, where=perm < rep)
            np.minimum(rep, perm, out=rep)
        coef /= 2 ** len(self.generators)
        norm2 = np.bincount(rep, weights=coef * coef, minlength=self.dim)
        kept = (rep == np.arange(self.dim)) & (norm2 > 0)  # exact sums: a cancelled orbit has 0
        col = np.cumsum(kept, dtype=np.int32) - 1
        in_kept = kept[rep]
        rows_rep = rep[in_kept]
        indptr = np.zeros(self.dim + 1, dtype=np.int32)
        np.cumsum(in_kept, out=indptr[1:])
        data = coef[in_kept] / np.sqrt(norm2[rows_rep])
        return sp.csr_matrix((data, col[rows_rep], indptr), shape=(self.dim, int(kept.sum())))


def projector(
    basis: BasisTable,
    geometry: Geometry,
    c2_parity: int | None,
    eh_parity: int | None,
    spin: float | None = None,
) -> Projector:
    """Build the projector onto the requested (C2, eh) parities; either may
    be None to skip that symmetry (see `check_block`).  Only an integer
    `spin` S on a 2M_S = 0 sector adds spin inversion, of character (-1)^S."""
    check_block(geometry, basis.sector, c2_parity, eh_parity)
    ops = ((c2_operator, c2_parity), (eh_operator, eh_parity))
    gens = tuple((op(basis, geometry), chi) for op, chi in ops if chi is not None)
    if spin is not None and basis.sector.twice_ms == 0 and float(spin).is_integer():
        gens += ((spin_flip_operator(basis), (-1) ** round(spin)),)
    return Projector(gens, basis.dim)


# --- total spin ---------------------------------------------------------------


def raising_operator(basis: BasisTable) -> sp.csr_matrix:
    """S+ = sum_i S+_i as a sparse map from the sector to its 2M_S + 2 sector.

    Fermions: S+_i = c+_{i,up} c_{i,dn}, and c_{i,dn} passes every up
    operator of the canonical ordering, so S+ = (-1)^{N_up} sum_i
    c+_{i,up} ⊗ c_{i,dn} on the (up, dn) Kronecker layout.  Spins: the
    raisers hold squared factors, so S+ = sqrt(sum_i R_i).  A fully
    polarized sector has no raised sector, and the matrix has no rows.
    """
    n, sec = basis.n_sites, basis.sector
    if basis.kind == "fermion":
        up_raised = _masks_with_popcount(n, sec.n_up + 1)
        dn_lowered = _masks_with_popcount(n, sec.n_dn - 1)
        c_up = [_annihilator(up_raised, basis.up_masks, i).T for i in range(n)]
        c_dn = [_annihilator(basis.dn_masks, dn_lowered, i) for i in range(n)]
        terms = [sp.kron(a, b, format="coo") for a, b in zip(c_up, c_dn)]
        # every (state, site) pair has its own target, so the terms share no
        # entry and one COO-to-CSR pass sums them
        data, rows, cols = (np.concatenate([getattr(t, f) for t in terms]) for f in ("data", "row", "col"))
        return sp.csr_matrix(((-1.0) ** sec.n_up * data, (rows, cols)), shape=terms[0].shape)
    twice = basis.twice_site_spin
    raised = _spin_codes(n, twice + 1, sec.twice_ms + 2, twice)
    return sum(_raiser(basis.spin_codes, raised, i, twice) for i in range(n)).sqrt()


def spin_squared(vectors: np.ndarray, basis: BasisTable) -> float | np.ndarray:
    """<S^2> = M_S(M_S + 1) + |S+ v|^2 of a normalized sector vector, or of
    every column of a (dim, k) block."""
    vectors = np.asarray(vectors, dtype=float)
    m = basis.sector.twice_ms / 2.0
    images = raising_operator(basis) @ vectors
    s2 = m * (m + 1.0) + np.einsum("i...,i...->...", images, images)
    return float(s2) if vectors.ndim == 1 else s2


def total_spin(vector: np.ndarray, basis: BasisTable) -> float:
    """Total spin S with <S^2> = S(S+1); raises MixedSpinError otherwise."""
    return _spin_of(spin_squared(vector, basis), basis.sector.twice_ms)


def spin_occurs(twice_s: int, twice_ms: int) -> bool:
    """Whether a spin-S multiplet has a member at 2M_S: |2M_S| <= 2S, 2S - 2M_S even."""
    return abs(twice_ms) <= twice_s and (twice_s - twice_ms) % 2 == 0


def _spin_of(s2: float, twice_ms: int) -> float:
    """The S, compatible with 2M_S, whose S(S+1) lies within SPIN_TOL of <S^2>."""
    twice_s = round(sqrt(1.0 + 4.0 * max(s2, 0.0)) - 1.0)
    s = twice_s / 2.0
    if not spin_occurs(twice_s, twice_ms) or abs(s2 - s * (s + 1.0)) > SPIN_TOL:
        raise MixedSpinError(
            f"<S^2> = {s2:.8f} is not within {SPIN_TOL} of any S(S+1) compatible with 2M_S = {twice_ms}"
        )
    return s


def classify(vector: np.ndarray, basis: BasisTable, geometry: Geometry) -> SymmetryLabel:
    """Label an eigenstate by C2/eh expectation values and total spin, within SPIN_TOL."""
    v = np.asarray(vector, dtype=float)
    c2_exp = float(v @ (c2_operator(basis, geometry) @ v))
    eh_exp = float(v @ (eh_operator(basis, geometry) @ v))
    for name, val in (("C2", c2_exp), ("electron-hole", eh_exp)):
        if abs(abs(val) - 1.0) > SPIN_TOL:
            raise SymmetryError(f"state is not a {name} eigenstate (<P> = {val:.6f})")
    return SymmetryLabel(
        c2_parity=1 if c2_exp > 0 else -1,
        eh_parity=1 if eh_exp > 0 else -1,
        total_spin=total_spin(v, basis),
    )
