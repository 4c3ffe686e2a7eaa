"""Two-fold reflection, electron-hole conjugation, and spin diagnostics.

Both discrete symmetries act on a sector as signed permutations of the
basis, so projections and symmetry-adapted subspace bases stay sparse.

Conventions (all signs follow the canonical operator ordering of the basis
module):

* The reflection permutes sites by the geometry's declared two-fold
  permutation; the fermionic sign is the parity of re-sorting each spin
  channel's creation operators.
* The electron-hole operation conjugates c+_{i,up} -> (-1)^i c_{i,dn}
  (site 1 odd), i.e. the particle-hole transformation combined with the
  pi spin rotation that keeps every half-filled (N_e, M_S) sector inside
  itself.  Its overall phase is fixed so the alternating covalent (Neel
  type) reference configuration maps with coefficient +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
import scipy.sparse as sp

from .basis import BasisTable, Sector, _masks_with_popcount, _spin_codes
from .lattice import Geometry

__all__ = [
    "SymmetryLabel",
    "SymmetryError",
    "MixedSpinError",
    "SignedPermutation",
    "Projector",
    "c2_operator",
    "eh_operator",
    "apply_c2",
    "apply_eh",
    "project",
    "projector",
    "spin_squared",
    "total_spin",
    "apply_splus",
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


class SignedPermutation:
    """Operator e_i -> sign[i] * e_{perm[i]} on one sector."""

    def __init__(self, perm: np.ndarray, sign: np.ndarray) -> None:
        self.perm = np.asarray(perm, dtype=np.int64)
        self.sign = np.asarray(sign, dtype=np.int8)

    @property
    def dim(self) -> int:
        return len(self.perm)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[self.perm] = self.sign * v
        return out


def _permute_masks(masks: np.ndarray, n_sites: int, perm: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Image masks and fermionic signs of one spin channel under a site permutation.

    The sign is the parity of re-sorting the mapped (ascending-occupied)
    creation-operator list, counted as inversions over the fixed set of
    inverting site pairs of the permutation.
    """
    new = np.zeros_like(masks)
    for site in range(1, n_sites + 1):
        bit = ((masks >> np.uint64(site - 1)) & np.uint64(1))
        new |= bit << np.uint64(perm[site - 1] - 1)
    inversions = np.zeros(len(masks), dtype=np.int64)
    for s1 in range(1, n_sites + 1):
        for s2 in range(s1 + 1, n_sites + 1):
            if perm[s1 - 1] > perm[s2 - 1]:
                pair = np.uint64((1 << (s1 - 1)) | (1 << (s2 - 1)))
                inversions += (np.bitwise_count(masks & pair) == 2).astype(np.int64)
    sign = np.where(inversions % 2 == 0, 1, -1).astype(np.int8)
    return new, sign


def c2_operator(basis: BasisTable, geometry: Geometry) -> SignedPermutation:
    """Signed permutation of the declared two-fold symmetry on a sector.

    For half-filled fermionic sectors the overall operator phase is fixed
    so that the alternating covalent reference configuration maps with
    coefficient +1.  That matches the parity labels of spin-adapted bases:
    at M_S = 0 it coincides with the raw operator-reordering parity, while
    in polarized sectors it absorbs the constant sign the re-sorting of
    unequal up/down channels would otherwise attach to every state.
    """
    if geometry.c2_perm is None:
        raise SymmetryError(f"geometry {geometry.name!r} declares no two-fold symmetry")
    perm = geometry.c2_perm
    n = basis.n_sites
    if basis.kind == "fermion":
        up_new, up_sign = _permute_masks(basis.up_masks, n, perm)
        dn_new, dn_sign = _permute_masks(basis.dn_masks, n, perm)
        iu = np.searchsorted(basis.up_masks, up_new)
        idn = np.searchsorted(basis.dn_masks, dn_new)
        nd = len(basis.dn_masks)
        gperm = (iu[:, None] * nd + idn[None, :]).reshape(-1)
        gsign = (up_sign[:, None] * dn_sign[None, :]).reshape(-1)
        if basis.sector.n_electrons == n:
            up_ref, dn_ref = _neel_reference(n, basis.sector.n_up)
            i_ref = int(np.searchsorted(basis.up_masks, np.uint64(up_ref))) * nd + int(
                np.searchsorted(basis.dn_masks, np.uint64(dn_ref))
            )
            if gsign[i_ref] < 0:
                gsign = (-gsign).astype(np.int8)
        return SignedPermutation(gperm, gsign)
    codes = basis.spin_codes
    new = np.zeros_like(codes)
    for site in range(1, n + 1):
        digit = (codes >> np.uint64(2 * (site - 1))) & np.uint64(3)
        new |= digit << np.uint64(2 * (perm[site - 1] - 1))
    return SignedPermutation(np.searchsorted(codes, new), np.ones(len(codes), dtype=np.int8))


def _neel_reference(n_sites: int, n_up: int) -> tuple[int, int]:
    """Covalent reference masks: up on odd sites, extra up spins filled from
    the even sites in ascending order."""
    odd = [s for s in range(1, n_sites + 1) if s % 2 == 1]
    even = [s for s in range(1, n_sites + 1) if s % 2 == 0]
    if n_up < len(odd):
        ups = odd[:n_up]
    else:
        ups = odd + even[: n_up - len(odd)]
    up_mask = sum(1 << (s - 1) for s in ups)
    dn_mask = ((1 << n_sites) - 1) ^ up_mask
    return up_mask, dn_mask


def eh_operator(basis: BasisTable) -> SignedPermutation:
    """Electron-hole conjugation (with spin rotation) on a half-filled sector."""
    if basis.kind != "fermion":
        raise SymmetryError("electron-hole conjugation is only defined for fermionic bases")
    n = basis.n_sites
    sec = basis.sector
    if sec.n_electrons != n:
        raise SymmetryError(
            f"electron-hole conjugation needs half filling (N_e = {n}), got N_e = {sec.n_electrons}"
        )
    full = np.uint64((1 << n) - 1)
    comp_up = basis.up_masks ^ full   # becomes a down mask
    comp_dn = basis.dn_masks ^ full   # becomes an up mask
    new_iu = np.searchsorted(basis.up_masks, comp_dn)
    new_id = np.searchsorted(basis.dn_masks, comp_up)
    nd = len(basis.dn_masks)
    # state (i_up, i_dn) -> (position of comp(dn), position of comp(up))
    iu = np.repeat(np.arange(len(basis.up_masks)), nd)
    idn = np.tile(np.arange(nd), len(basis.up_masks))
    gperm = new_iu[idn] * nd + new_id[iu]

    n_up, n_dn = sec.n_up, sec.n_dn
    # particle-hole part: phases (-1)^i on every conjugated operator plus the
    # annihilator parities against the fully occupied reference; spin-rotation
    # part: (-1) per original down spin plus the channel-interchange parity.
    ph = (n_up + n_dn * (1 + n)) % 2
    rot = ((n - n_dn) + (n - n_up) * (n - n_dn)) % 2
    eps = -1 if (ph + rot) % 2 else 1

    sign = np.full(basis.dim, eps, dtype=np.int8)
    op = SignedPermutation(gperm, sign)
    # fix the global phase: the alternating covalent reference maps to itself
    # with coefficient +1
    up_ref, dn_ref = _neel_reference(n, n_up)
    i_ref = int(np.searchsorted(basis.up_masks, np.uint64(up_ref))) * nd + int(
        np.searchsorted(basis.dn_masks, np.uint64(dn_ref))
    )
    ref_sign = int(op.sign[i_ref]) if op.perm[i_ref] == i_ref else None
    if ref_sign is None:
        raise SymmetryError("internal error: covalent reference is not an eh fixed point")
    if ref_sign < 0:
        op = SignedPermutation(op.perm, -op.sign)
    return op


def _check_alternant(geometry: Geometry) -> None:
    for i, j in geometry.bonds:
        if (i + j) % 2 == 0:
            raise SymmetryError(
                "electron-hole symmetry needs an alternant bond graph "
                f"(bond ({i},{j}) connects same-parity sites)"
            )


def apply_c2(vector: np.ndarray, basis: BasisTable, geometry: Geometry) -> np.ndarray:
    return c2_operator(basis, geometry).apply(np.asarray(vector, dtype=float))


def apply_eh(vector: np.ndarray, basis: BasisTable, geometry: Geometry) -> np.ndarray:
    _check_alternant(geometry)
    return eh_operator(basis).apply(np.asarray(vector, dtype=float))


class Projector:
    """(1 +- C2)(1 +- J)/4 onto one symmetry-adapted subspace of a sector."""

    def __init__(
        self,
        c2: SignedPermutation | None,
        eh: SignedPermutation | None,
        c2_parity: int,
        eh_parity: int,
        dim: int,
    ) -> None:
        self.c2 = c2
        self.eh = eh
        self.c2_parity = c2_parity
        self.eh_parity = eh_parity
        self.dim = dim

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = v
        if self.eh is not None:
            out = 0.5 * (out + self.eh_parity * self.eh.apply(out))
        if self.c2 is not None:
            out = 0.5 * (out + self.c2_parity * self.c2.apply(out))
        return out

    def orbit_basis(self, tol: float = 1e-12) -> sp.csr_matrix:
        """Sparse orthonormal basis of the projector's range.

        Projected basis vectors supported on disjoint group orbits are
        orthogonal, so normalizing the projection of each orbit's smallest
        index gives an orthonormal basis with at most four entries per
        column, ordered by that index.
        """
        # group element g: e_i -> s_g[i] e_{p_g[i]}, with the parity character
        # folded into the sign
        group = [(np.arange(self.dim), np.ones(self.dim))]
        for op, parity in ((self.c2, self.c2_parity), (self.eh, self.eh_parity)):
            if op is not None:
                group += [(op.perm[p], s * parity * op.sign[p]) for p, s in group]
        perms = np.array([p for p, _ in group])
        signs = np.array([s for _, s in group])
        reps = np.flatnonzero(perms.min(axis=0) == np.arange(self.dim))
        cols = np.broadcast_to(np.arange(len(reps)), (len(group), len(reps)))
        q = sp.csc_matrix(
            (signs[:, reps].ravel() / len(group), (perms[:, reps].ravel(), cols.ravel())),
            shape=(self.dim, len(reps)),
        )  # sums the duplicates of stabilized orbit members
        norm2 = np.asarray(q.multiply(q).sum(axis=0)).ravel()
        keep = norm2 > tol
        q = q[:, keep]
        q.data /= np.repeat(np.sqrt(norm2[keep]), np.diff(q.indptr))
        return q.tocsr()


def projector(
    basis: BasisTable,
    geometry: Geometry,
    c2_parity: int | None,
    eh_parity: int | None,
) -> Projector:
    """Build the projector onto the requested (C2, eh) parities.

    Either parity may be None to skip that symmetry (e.g. eh on spin models
    or on non-alternant geometries).
    """
    for name, parity in (("C2", c2_parity), ("electron-hole", eh_parity)):
        if parity not in (1, -1, None):
            raise SymmetryError(f"{name} parity must be +1, -1 or None, got {parity!r}")
    c2 = c2_operator(basis, geometry) if c2_parity is not None else None
    eh = None
    if eh_parity is not None:
        _check_alternant(geometry)
        eh = eh_operator(basis)
    return Projector(c2, eh, c2_parity or 0, eh_parity or 0, basis.dim)


def project(
    vector: np.ndarray,
    basis: BasisTable,
    geometry: Geometry,
    c2_parity: int,
    eh_parity: int,
) -> np.ndarray:
    """Apply (1 + a C2)(1 + b J)/4; the zero vector is a legitimate result."""
    if c2_parity not in (-1, 1) or eh_parity not in (-1, 1):
        raise SymmetryError("parities must be +1 or -1")
    return projector(basis, geometry, c2_parity, eh_parity).apply(
        np.asarray(vector, dtype=float)
    )


# --- total spin ---------------------------------------------------------------


def _splus_fermion(vector: np.ndarray, basis: BasisTable) -> tuple[np.ndarray, BasisTable | None]:
    sec = basis.sector
    n = basis.n_sites
    if sec.n_dn == 0 or sec.n_up >= n:
        return np.zeros(0), None
    target = BasisTable(
        kind="fermion",
        n_sites=n,
        sector=Sector(sec.n_electrons, sec.twice_ms + 2),
        up_masks=_masks_with_popcount(n, sec.n_up + 1),
        dn_masks=_masks_with_popcount(n, sec.n_dn - 1),
    )
    out = np.zeros(target.dim)
    if target.dim == 0:
        return out, target
    nd_src = len(basis.dn_masks)
    nd_tgt = len(target.dn_masks)
    v = vector.reshape(len(basis.up_masks), nd_src)
    for site in range(1, n + 1):
        bit = np.uint64(1 << (site - 1))
        below = np.uint64((1 << (site - 1)) - 1)
        up_ok = (basis.up_masks & bit) == 0
        dn_ok = (basis.dn_masks & bit) != 0
        if not up_ok.any() or not dn_ok.any():
            continue
        iu = np.flatnonzero(up_ok)
        idn = np.flatnonzero(dn_ok)
        new_up = basis.up_masks[iu] | bit
        new_dn = basis.dn_masks[idn] ^ bit
        tu = np.searchsorted(target.up_masks, new_up)
        td = np.searchsorted(target.dn_masks, new_dn)
        # annihilate dn at orbital N+site-1: all up spins plus dn below count;
        # create up at orbital site-1: up bits below count
        par_dn = np.bitwise_count(basis.dn_masks[idn] & below).astype(np.int64) + sec.n_up
        par_up = np.bitwise_count(basis.up_masks[iu] & below).astype(np.int64)
        s_u = np.where(par_up % 2 == 0, 1.0, -1.0)
        s_d = np.where(par_dn % 2 == 0, 1.0, -1.0)
        out_view = out.reshape(len(target.up_masks), nd_tgt)
        np.add.at(out_view, (tu[:, None], td[None, :]), s_u[:, None] * s_d[None, :] * v[np.ix_(iu, idn)])
    return out, target


def _splus_spin(vector: np.ndarray, basis: BasisTable) -> tuple[np.ndarray, BasisTable | None]:
    twice = basis.twice_site_spin
    n = basis.n_sites
    sec = basis.sector
    if sec.twice_ms + 2 > n * twice:
        return np.zeros(0), None
    codes_tgt = _spin_codes(n, twice + 1, sec.twice_ms + 2, twice)
    target = BasisTable(
        kind="spin", n_sites=n, sector=Sector(None, sec.twice_ms + 2),
        twice_site_spin=twice, spin_codes=codes_tgt,
    )
    out = np.zeros(target.dim)
    if target.dim == 0:
        return out, target
    digits = basis.digit_matrix().astype(np.int64)
    for site in range(1, n + 1):
        d = digits[:, site - 1]
        ok = d < twice
        src = np.flatnonzero(ok)
        if len(src) == 0:
            continue
        coeff = np.sqrt(((twice - d[src]) * (d[src] + 1)).astype(float))
        new = (basis.spin_codes[src].astype(np.int64) + (1 << (2 * (site - 1)))).astype(np.uint64)
        tgt = np.searchsorted(codes_tgt, new)
        np.add.at(out, tgt, coeff * vector[src])
    return out, target


def apply_splus(vector: np.ndarray, basis: BasisTable) -> tuple[np.ndarray, BasisTable | None]:
    """S+ |v>, returned in the (2M_S + 2) sector basis.

    Returns (zeros(0), None) when the raised sector does not exist, i.e.
    the input sector is fully polarized.
    """
    vector = np.asarray(vector, dtype=float)
    if basis.kind == "fermion":
        return _splus_fermion(vector, basis)
    return _splus_spin(vector, basis)


def spin_squared(vector: np.ndarray, basis: BasisTable) -> float:
    """<S^2> = M_S(M_S + 1) + |S+ v|^2 for a normalized sector vector."""
    vector = np.asarray(vector, dtype=float)
    m = basis.sector.twice_ms / 2.0
    image, _ = apply_splus(vector, basis)
    return float(m * (m + 1.0) + image @ image)


def total_spin(vector: np.ndarray, basis: BasisTable, tol: float = 1e-6) -> float:
    """Total spin S with <S^2> = S(S+1); raises MixedSpinError otherwise."""
    s2 = spin_squared(vector, basis)
    s_est = 0.5 * (-1.0 + sqrt(1.0 + 4.0 * max(s2, 0.0)))
    tm = abs(basis.sector.twice_ms)
    # 2S must match the parity of 2M_S
    twice_s = round(s_est * 2.0)
    if (twice_s - tm) % 2 != 0:
        twice_s += 1 if (round(2 * s_est) - 2 * s_est) <= 0 else -1
    candidates = {max(tm, twice_s - 2), max(tm, twice_s), twice_s + 2}
    best = min(candidates, key=lambda k: abs(s2 - (k / 2) * (k / 2 + 1)))
    if abs(s2 - (best / 2) * (best / 2 + 1)) > tol:
        raise MixedSpinError(
            f"<S^2> = {s2:.8f} is not within {tol} of any S(S+1) compatible with 2M_S = {basis.sector.twice_ms}"
        )
    return best / 2.0


def classify(
    vector: np.ndarray,
    basis: BasisTable,
    geometry: Geometry,
    tol: float = 1e-6,
) -> SymmetryLabel:
    """Label an eigenstate by C2/eh expectation values and total spin."""
    v = np.asarray(vector, dtype=float)
    c2v = apply_c2(v, basis, geometry)
    c2_exp = float(v @ c2v)
    ehv = apply_eh(v, basis, geometry)
    eh_exp = float(v @ ehv)
    for name, val in (("C2", c2_exp), ("electron-hole", eh_exp)):
        if abs(abs(val) - 1.0) > tol:
            raise SymmetryError(f"state is not a {name} eigenstate (<P> = {val:.6f})")
    return SymmetryLabel(
        c2_parity=1 if c2_exp > 0 else -1,
        eh_parity=1 if eh_exp > 0 else -1,
        total_spin=total_spin(v, basis),
    )
