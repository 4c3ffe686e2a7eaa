"""Sector bases, the state encoding and its ladder operators, and bipartite
factorization.

Fermionic configurations are bit-coded with one up-spin and one down-spin
mask per state.  The canonical operator ordering is "all up-spin creation
operators by ascending site, then all down-spin operators by ascending
site"; every sign in this module (and in the symmetry module) follows from
that single convention.  Spin configurations are digit strings, one digit
0..2s per site, packed two bits per site.

State ordering within a sector is lexicographic on (up_mask, dn_mask) for
fermions, the Kronecker layout of the two channels, and ascending on the
packed code for spins, which makes every basis table a deterministic
archive.  Two ladder primitives, CSR maps between neighbouring state lists,
carry the encoding to the other modules: `_annihilator` (c_i on one fermion
channel with its Jordan-Wigner sign) and `_raiser` (S+_i on spin codes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .lattice import Bipartition, Geometry, GeometryError

__all__ = [
    "FermionState",
    "SpinState",
    "Sector",
    "BasisTable",
    "BipartiteBlock",
    "BipartiteIndex",
    "SectorError",
    "FERMIONIC_KINDS",
    "SPIN_KINDS",
    "is_fermionic_kind",
    "check_site_limit",
    "enumerate_sector",
    "sector_dimension",
    "multiplet_counts",
    "bipartite_factorize",
]

FERMIONIC_KINDS = ("huckel", "hubbard", "ppp")
SPIN_KINDS = ("heisenberg",)


class SectorError(ValueError):
    """Sector quantum numbers inconsistent with the model or geometry."""


def is_fermionic_kind(kind: str) -> bool:
    if kind in FERMIONIC_KINDS:
        return True
    if kind in SPIN_KINDS:
        return False
    raise SectorError(f"unknown model kind {kind!r}")


def check_site_limit(n_sites: int, model_kind: str) -> None:
    """Reject geometries wider than the state encodings: fermion masks hold
    one bit per site in a uint64, spin codes two bits per site."""
    fermionic = is_fermionic_kind(model_kind)
    limit = 64 if fermionic else 32
    if n_sites > limit:
        raise GeometryError(
            f"{n_sites} sites exceed the {limit}-site limit of "
            f"{'fermion' if fermionic else 'spin'} models"
        )


@dataclass(frozen=True)
class FermionState:
    """Occupation configuration: one bit per site and spin channel."""

    up_mask: int
    dn_mask: int

    def occupation(self, site: int) -> int:
        b = site - 1
        return ((self.up_mask >> b) & 1) + ((self.dn_mask >> b) & 1)


@dataclass(frozen=True)
class SpinState:
    """Magnetization digits, digit i in 0..2s for site i+1."""

    digits: tuple[int, ...]


@dataclass(frozen=True)
class Sector:
    """Conserved quantum numbers naming a Hilbert-space block.

    twice_ms is 2*M_S so half-integer magnetizations stay exact integers.
    n_electrons is None for pure spin models.
    """

    n_electrons: int | None
    twice_ms: int

    def __post_init__(self) -> None:
        if self.n_electrons is not None:
            ne, tm = self.n_electrons, self.twice_ms
            if ne < 0:
                raise SectorError(f"n_electrons must be non-negative, got {ne}")
            if abs(tm) > ne or (ne - tm) % 2 != 0:
                raise SectorError(f"twice_ms={tm} impossible for n_electrons={ne}")

    @property
    def n_up(self) -> int:
        if self.n_electrons is None:
            raise SectorError("spin sectors have no electron count")
        return (self.n_electrons + self.twice_ms) // 2

    @property
    def n_dn(self) -> int:
        if self.n_electrons is None:
            raise SectorError("spin sectors have no electron count")
        return (self.n_electrons - self.twice_ms) // 2


@lru_cache(maxsize=None)
def _masks_with_popcount(n_bits: int, k: int) -> np.ndarray:
    """All n_bits-wide masks with k set bits, ascending (lexicographic)."""
    if k < 0 or k > n_bits:
        return np.zeros(0, dtype=np.uint64)
    masks = np.fromiter(
        (sum(1 << b for b in combo) for combo in itertools.combinations(range(n_bits), k)),
        dtype=np.uint64,
        count=comb(n_bits, k),
    )
    masks.sort()
    masks.flags.writeable = False
    return masks


def _spin_codes(n_sites: int, n_digits: int, twice_ms: int, twice_spin: int) -> np.ndarray:
    """Packed codes (2 bits/site) of digit strings with fixed magnetization."""
    target = (twice_ms + n_sites * twice_spin) // 2  # sum of digits
    if (twice_ms + n_sites * twice_spin) % 2 != 0 or not 0 <= target <= n_sites * (n_digits - 1):
        return np.zeros(0, dtype=np.uint64)
    codes = np.zeros(1, dtype=np.uint64)
    sums = np.zeros(1, dtype=np.int64)
    for site in range(n_sites):
        # extend every prefix by each digit, keeping those the remaining
        # sites can still complete to the target sum
        codes = np.concatenate([codes | np.uint64(d << (2 * site)) for d in range(n_digits)])
        sums = np.concatenate([sums + d for d in range(n_digits)])
        rest = target - sums
        keep = (rest >= 0) & (rest <= (n_sites - site - 1) * (n_digits - 1))
        codes, sums = codes[keep], sums[keep]
    codes.sort()
    codes.flags.writeable = False
    return codes


def _annihilator(masks: np.ndarray, lowered: np.ndarray, site: int) -> sp.csr_matrix:
    """c_site (0-based) on one fermion channel, as a CSR map from `masks` to
    `lowered`, the list with one particle fewer.  The Jordan-Wigner sign is
    the parity of the occupied sites below `site`."""
    bit = np.uint64(1 << site)
    src = np.flatnonzero(masks & bit)
    below = np.bitwise_count(masks[src] & np.uint64((1 << site) - 1))
    sign = np.where(below % 2 == 0, 1.0, -1.0)
    tgt = np.searchsorted(lowered, masks[src] ^ bit)
    return sp.csr_matrix((sign, (tgt, src)), shape=(len(lowered), len(masks)))


def _raiser(codes: np.ndarray, raised: np.ndarray, site: int, twice: int) -> sp.csr_matrix:
    """S+_site (0-based) on spin codes of site spin twice/2, as a CSR map from
    `codes` to `raised`, the list with 2M_S two higher.  Each entry holds the
    squared factor (2s - d)(d + 1) of the raised digit d, so products of
    raisers stay exact integers until one square root is taken."""
    shift = np.uint64(2 * site)
    d = ((codes >> shift) & np.uint64(3)).astype(np.int64)
    src = np.flatnonzero(d < twice)
    factor = ((twice - d[src]) * (d[src] + 1)).astype(np.float64)
    tgt = np.searchsorted(raised, codes[src] + (np.uint64(1) << shift))
    return sp.csr_matrix((factor, (tgt, src)), shape=(len(raised), len(codes)))


def _occupancy(masks: np.ndarray, n_sites: int) -> np.ndarray:
    """(len(masks), n_sites) float matrix of one channel's site occupations."""
    shifts = np.arange(n_sites, dtype=np.uint64)[None, :]
    return ((masks[:, None] >> shifts) & np.uint64(1)).astype(np.float64)


def _twice_site_spin(model_kind: str, site_spin: float) -> int:
    twice = round(2 * site_spin)
    if abs(2 * site_spin - twice) > 1e-12 or twice not in (1, 2):
        raise SectorError(f"site_spin must be 1/2 or 1, got {site_spin}")
    return twice


@dataclass(frozen=True)
class BasisTable:
    """Ordered basis of one (N_e, 2M_S) sector with exact state <-> index maps."""

    kind: str  # "fermion" or "spin"
    n_sites: int
    sector: Sector
    twice_site_spin: int = 1
    up_masks: np.ndarray | None = None
    dn_masks: np.ndarray | None = None
    spin_codes: np.ndarray | None = None

    @property
    def dim(self) -> int:
        if self.kind == "fermion":
            return len(self.up_masks) * len(self.dn_masks)
        return len(self.spin_codes)

    def state_at(self, index: int) -> FermionState | SpinState:
        if not 0 <= index < self.dim:
            raise IndexError(f"state index {index} outside 0..{self.dim - 1}")
        if self.kind == "fermion":
            nd = len(self.dn_masks)
            return FermionState(int(self.up_masks[index // nd]), int(self.dn_masks[index % nd]))
        code = int(self.spin_codes[index])
        return SpinState(tuple((code >> (2 * i)) & 3 for i in range(self.n_sites)))

    def index_of(self, state: FermionState | SpinState) -> int:
        if self.kind == "fermion":
            if not isinstance(state, FermionState):
                raise TypeError("fermionic basis expects FermionState")
            iu = int(np.searchsorted(self.up_masks, np.uint64(state.up_mask)))
            idn = int(np.searchsorted(self.dn_masks, np.uint64(state.dn_mask)))
            if (
                iu >= len(self.up_masks)
                or idn >= len(self.dn_masks)
                or int(self.up_masks[iu]) != state.up_mask
                or int(self.dn_masks[idn]) != state.dn_mask
            ):
                raise KeyError(f"state {state} not in sector {self.sector}")
            return iu * len(self.dn_masks) + idn
        if not isinstance(state, SpinState):
            raise TypeError("spin basis expects SpinState")
        code = sum(d << (2 * i) for i, d in enumerate(state.digits))
        k = int(np.searchsorted(self.spin_codes, np.uint64(code)))
        if k >= len(self.spin_codes) or int(self.spin_codes[k]) != code:
            raise KeyError(f"state {state} not in sector {self.sector}")
        return k

    def states(self) -> Iterator[FermionState | SpinState]:
        for i in range(self.dim):
            yield self.state_at(i)

    def digit_matrix(self) -> np.ndarray:
        """Spin models: (dim, n_sites) int8 matrix of per-site digits."""
        if self.kind != "spin":
            raise SectorError("digit_matrix is only defined for spin bases")
        codes = self.spin_codes[:, None]
        shifts = (2 * np.arange(self.n_sites, dtype=np.uint64))[None, :]
        return ((codes >> shifts) & np.uint64(3)).astype(np.int8)


def enumerate_sector(
    geometry: Geometry,
    model_kind: str,
    sector: Sector,
    site_spin: float = 0.5,
) -> BasisTable:
    """Enumerate a sector basis; an empty sector yields an empty table."""
    n = geometry.n_sites
    if is_fermionic_kind(model_kind):
        if sector.n_electrons is None:
            raise SectorError(f"model {model_kind!r} needs an electron count in the sector")
        return BasisTable(
            kind="fermion",
            n_sites=n,
            sector=sector,
            up_masks=_masks_with_popcount(n, sector.n_up),
            dn_masks=_masks_with_popcount(n, sector.n_dn),
        )
    if sector.n_electrons is not None:
        raise SectorError("spin models take Sector(n_electrons=None, ...)")
    twice = _twice_site_spin(model_kind, site_spin)
    if abs(sector.twice_ms) > n * twice:
        raise SectorError(f"|twice_ms|={abs(sector.twice_ms)} exceeds the maximum {n * twice}")
    codes = _spin_codes(n, twice + 1, sector.twice_ms, twice)
    return BasisTable(kind="spin", n_sites=n, sector=sector, twice_site_spin=twice, spin_codes=codes)


def sector_dimension(
    n_sites: int,
    model_kind: str,
    sector: Sector,
    site_spin: float = 0.5,
) -> int:
    """Sector dimension without enumerating states (binomials / digit counting)."""
    if is_fermionic_kind(model_kind):
        if sector.n_electrons is None:
            raise SectorError(f"model {model_kind!r} needs an electron count in the sector")
        return comb(n_sites, sector.n_up) * comb(n_sites, sector.n_dn)
    if sector.n_electrons is not None:
        raise SectorError("spin models take Sector(n_electrons=None, ...)")
    twice = _twice_site_spin(model_kind, site_spin)
    target = (sector.twice_ms + n_sites * twice) // 2
    if (sector.twice_ms + n_sites * twice) % 2 != 0:
        return 0
    # counts[s] = number of digit strings with digit sum s, exact integers
    counts = [1]
    for _ in range(n_sites):
        new = [0] * (len(counts) + twice)
        for s, c in enumerate(counts):
            for d in range(twice + 1):
                new[s + d] += c
        counts = new
    return counts[target] if 0 <= target < len(counts) else 0


def multiplet_counts(n_sites: int, model_kind: str, site_spin: float = 0.5) -> dict[int, int]:
    """Number of total-spin-S multiplets, keyed by 2S.

    count(S) = dim(M_S = S) - dim(M_S = S + 1) for the half-filled fermionic
    system or the pure spin system.
    """
    if n_sites < 0:
        raise ValueError(f"n_sites must be non-negative, got {n_sites}")
    if is_fermionic_kind(model_kind):
        max_twice = n_sites
        def dim(tm: int) -> int:
            if (n_sites - tm) % 2 != 0 or tm > n_sites:
                return 0
            sec = Sector(n_electrons=n_sites, twice_ms=tm)
            return sector_dimension(n_sites, model_kind, sec)
    else:
        twice = _twice_site_spin(model_kind, site_spin)
        max_twice = n_sites * twice
        def dim(tm: int) -> int:
            if tm > max_twice:
                return 0
            return sector_dimension(n_sites, model_kind, Sector(None, tm), site_spin)

    lowest = max_twice % 2
    out: dict[int, int] = {}
    for twice_s in range(lowest, max_twice + 1, 2):
        c = dim(twice_s) - dim(twice_s + 2)
        if c:
            out[twice_s] = c
    return out


# --- bipartite factorization -------------------------------------------------


@dataclass(frozen=True)
class BipartiteBlock:
    """All global states whose left part carries one (2M_S, n) left sector."""

    twice_ms_left: int
    n_left: int
    left_dim: int
    right_dim: int
    global_index: np.ndarray
    row: np.ndarray
    col: np.ndarray
    sign: np.ndarray


@dataclass(frozen=True)
class BipartiteIndex:
    """Per-state (left, right, sign) factorization across a site cut.

    The sign is the parity of reordering all creation operators from the
    canonical global ordering into block ordering (left up, left dn, right
    up, right dn); it is +1 identically for spin models.
    """

    bipartition: Bipartition
    basis_dim: int
    blocks: tuple[BipartiteBlock, ...]


def _gather_info(masks: np.ndarray, n_sites: int, left: Sequence[int], right: Sequence[int]):
    """Per-mask left/right sub-masks, local ranks, and gather parity.

    The gather parity is the sign of sorting the occupied sites from global
    ascending order into (left ascending, right ascending) order; it is +1
    for cuts where every left site precedes every right site.
    """
    left = sorted(left)
    right = sorted(right)
    m = masks.astype(np.uint64)
    sub_l = np.zeros(len(m), dtype=np.uint64)
    sub_r = np.zeros(len(m), dtype=np.uint64)
    for pos, site in enumerate(left):
        sub_l |= ((m >> np.uint64(site - 1)) & np.uint64(1)) << np.uint64(pos)
    for pos, site in enumerate(right):
        sub_r |= ((m >> np.uint64(site - 1)) & np.uint64(1)) << np.uint64(pos)
    k_l = np.bitwise_count(sub_l).astype(np.int64)
    k_r = np.bitwise_count(sub_r).astype(np.int64)

    left_mask_bits = sum(1 << (s - 1) for s in left)
    inversions = np.zeros(len(m), dtype=np.int64)
    for site in right:
        above = left_mask_bits >> site  # left sites with index > this right site
        above_mask = np.uint64(above << site)
        occupied = ((m >> np.uint64(site - 1)) & np.uint64(1)).astype(np.int64)
        inversions += occupied * np.bitwise_count(m & above_mask).astype(np.int64)
    parity = np.where(inversions % 2 == 0, 1, -1).astype(np.int8)

    rank_l = np.empty(len(m), dtype=np.int64)
    rank_r = np.empty(len(m), dtype=np.int64)
    for k in np.unique(k_l):
        table = _masks_with_popcount(len(left), int(k))
        sel = k_l == k
        rank_l[sel] = np.searchsorted(table, sub_l[sel])
    for k in np.unique(k_r):
        table = _masks_with_popcount(len(right), int(k))
        sel = k_r == k
        rank_r[sel] = np.searchsorted(table, sub_r[sel])
    return k_l, k_r, rank_l, rank_r, parity


def _fermion_factorize(basis: BasisTable, bipartition: Bipartition) -> BipartiteIndex:
    left, right = bipartition.left, bipartition.right
    nl, nr = len(left), len(right)
    up = _gather_info(basis.up_masks, basis.n_sites, left, right)
    dn = _gather_info(basis.dn_masks, basis.n_sites, left, right)
    ku_l, ku_r, uprank_l, uprank_r, upar = up
    kd_l, kd_r, dnrank_l, dnrank_r, dpar = dn

    n_dn_list = len(basis.dn_masks)
    dim = basis.dim
    iu = np.repeat(np.arange(len(basis.up_masks)), n_dn_list)
    idn = np.tile(np.arange(n_dn_list), len(basis.up_masks))

    ku, kd = ku_l[iu], kd_l[idn]
    # local composite index: up-left rank runs over the slower axis, exactly
    # matching the (up, dn) lexicographic ordering of a left-block BasisTable
    l_dn_dim = np.array([comb(nl, int(k)) for k in kd_l])[idn]
    r_dn_dim = np.array([comb(nr, int(k)) for k in kd_r])[idn]

    row = uprank_l[iu] * l_dn_dim + dnrank_l[idn]
    col = uprank_r[iu] * r_dn_dim + dnrank_r[idn]
    # reordering parity: (left up, left dn) x (right up, right dn) needs the
    # left-block down operators moved past the right-block up operators
    cross = ((kd * ku_r[iu]) % 2).astype(np.int8)
    sign = (upar[iu] * dpar[idn] * np.where(cross == 0, 1, -1)).astype(np.int8)

    key = ku * (basis.sector.n_dn + 1) + kd
    order = np.argsort(key, kind="stable")
    blocks: list[BipartiteBlock] = []
    sorted_key = key[order]
    boundaries = np.flatnonzero(np.diff(sorted_key)) + 1
    for chunk in np.split(order, boundaries):
        g0 = chunk[0]
        b_ku, b_kd = int(ku[g0]), int(kd[g0])
        blocks.append(
            BipartiteBlock(
                twice_ms_left=b_ku - b_kd,
                n_left=b_ku + b_kd,
                left_dim=comb(nl, b_ku) * comb(nl, b_kd),
                right_dim=comb(nr, basis.sector.n_up - b_ku) * comb(nr, basis.sector.n_dn - b_kd),
                global_index=chunk.astype(np.int64),
                row=row[chunk],
                col=col[chunk],
                sign=sign[chunk],
            )
        )
    blocks.sort(key=lambda b: (b.n_left, b.twice_ms_left))
    return BipartiteIndex(bipartition=bipartition, basis_dim=dim, blocks=tuple(blocks))


def _spin_factorize(basis: BasisTable, bipartition: Bipartition) -> BipartiteIndex:
    left = sorted(bipartition.left)
    right = sorted(bipartition.right)
    twice = basis.twice_site_spin
    digits = basis.digit_matrix()
    dl = digits[:, [s - 1 for s in left]]
    dr = digits[:, [s - 1 for s in right]]
    tm_left = (2 * dl.sum(axis=1, dtype=np.int64) - twice * len(left)).astype(np.int64)

    def pack(block: np.ndarray) -> np.ndarray:
        codes = np.zeros(block.shape[0], dtype=np.uint64)
        for pos in range(block.shape[1]):
            codes |= block[:, pos].astype(np.uint64) << np.uint64(2 * pos)
        return codes

    lcodes, rcodes = pack(dl), pack(dr)
    blocks: list[BipartiteBlock] = []
    for tm in np.unique(tm_left):
        sel = np.flatnonzero(tm_left == tm)
        ltable = _spin_codes(len(left), twice + 1, int(tm), twice)
        rtable = _spin_codes(len(right), twice + 1, basis.sector.twice_ms - int(tm), twice)
        blocks.append(
            BipartiteBlock(
                twice_ms_left=int(tm),
                n_left=len(left),
                left_dim=len(ltable),
                right_dim=len(rtable),
                global_index=sel.astype(np.int64),
                row=np.searchsorted(ltable, lcodes[sel]).astype(np.int64),
                col=np.searchsorted(rtable, rcodes[sel]).astype(np.int64),
                sign=np.ones(len(sel), dtype=np.int8),
            )
        )
    blocks.sort(key=lambda b: (b.n_left, b.twice_ms_left))
    return BipartiteIndex(bipartition=bipartition, basis_dim=basis.dim, blocks=tuple(blocks))


def bipartite_factorize(basis: BasisTable, bipartition: Bipartition) -> BipartiteIndex:
    """Factorize every basis state into (left index, right index, sign)."""
    sites = set(bipartition.left) | set(bipartition.right)
    if sites != set(range(1, basis.n_sites + 1)):
        raise SectorError("bipartition must cover exactly the basis sites")
    if basis.kind == "fermion":
        return _fermion_factorize(basis, bipartition)
    return _spin_factorize(basis, bipartition)
