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

Bipartite factorization is a per-channel sort plus a reshape, with no
per-state index.  Fermions have two channels, the up and the down masks;
spin codes are the one-channel case.  Each channel is sorted by (left digit
sum k_l, left sub-code, right sub-code), and once k_l is fixed its states
are the complete product of the left and right sub-lists, so a left-sector
block is a slice of the sorted layout.  A fermion channel position carries
its gather parity and a block one constant cross sign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .lattice import Bipartition, Geometry, GeometryError

__all__ = [
    "FermionState",
    "SpinState",
    "Sector",
    "BasisTable",
    "ChannelLayout",
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


def _reorder_sign(occ: np.ndarray, image: np.ndarray) -> np.ndarray:
    """+1 or -1 per row of a channel occupancy matrix: the parity of moving
    the occupied sites, listed ascending, to the 0-based positions `image`
    (one per site), i.e. of the occupied site pairs whose order it inverts."""
    inverted = np.triu(image[:, None] > image[None, :], 1).astype(np.float64)
    return np.where(np.einsum("ms,st,mt->m", occ, inverted, occ) % 2 == 0, 1.0, -1.0)


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
    fermionic = is_fermionic_kind(model_kind)
    max_twice = n_sites if fermionic else n_sites * _twice_site_spin(model_kind, site_spin)

    def dim(tm: int) -> int:
        if tm > max_twice:
            return 0
        return sector_dimension(n_sites, model_kind, Sector(n_sites if fermionic else None, tm), site_spin)

    lowest = max_twice % 2
    out: dict[int, int] = {}
    for twice_s in range(lowest, max_twice + 1, 2):
        c = dim(twice_s) - dim(twice_s + 2)
        if c:
            out[twice_s] = c
    return out


# --- bipartite factorization -------------------------------------------------


@dataclass(frozen=True)
class ChannelLayout:
    """One channel's states (fermion up or down masks, or spin codes) sorted
    by (left digit sum k_l, left sub-code, right sub-code).

    For each k_l the sorted states are the complete product of the left and
    right sub-lists, row-major [left, right].
    """

    order: np.ndarray  # channel position of each layout position
    sign: np.ndarray  # gather parity of each layout position, ones on spins
    segments: dict[int, tuple[int, int, int]]  # k_l -> (start, left count, right count)


@dataclass(frozen=True)
class BipartiteBlock:
    """All global states whose left part carries one (2M_S, n) left sector:
    one k_l segment (start, left count, right count) of every channel, and
    the sign (-1)^(k_dl k_ur) shared by all its fermion states."""

    twice_ms_left: int
    n_left: int
    left_dim: int
    right_dim: int
    segments: tuple[tuple[int, int, int], ...]
    cross_sign: float


@dataclass(frozen=True)
class BipartiteIndex:
    """Factorization of a basis across a site cut: its channel layouts and
    the left-sector blocks they form.

    A fermion state's sign is the parity of reordering its creation
    operators from the canonical global ordering into block ordering (left
    up, left dn, right up, right dn): the product of its two channel gather
    parities and its block's cross sign, the left down operators moved past
    the right up ones.  It is +1 identically for spin models.  The index
    records the basis it factorizes.
    """

    bipartition: Bipartition
    kind: str
    n_sites: int
    sector: Sector
    twice_site_spin: int
    channels: tuple[ChannelLayout, ...]
    blocks: tuple[BipartiteBlock, ...]


def _channel_layout(
    digits: np.ndarray, left: list[int], right: list[int], image: np.ndarray | None
) -> ChannelLayout:
    """Layout of one channel from its (states, n_sites) digit matrix.  On
    fermions `image` holds each site's 0-based position in the block order
    (left sites, then right sites); on spins it is None."""
    dl, dr = digits[:, [s - 1 for s in left]], digits[:, [s - 1 for s in right]]
    k_l = dl.sum(axis=1).astype(np.int64)
    # lexsort sorts by its last key first; a sub-code's leading digit is its last site
    order = np.lexsort(np.column_stack([dr, dl, k_l]).T)
    sign = np.ones(len(order)) if image is None else _reorder_sign(digits[order], image)
    k_sorted, dl_sorted = k_l[order], dl[order]
    starts = np.flatnonzero(np.diff(k_sorted, prepend=-1))
    segments = {}
    for a, b in zip(starts, [*starts[1:], len(order)]):
        right_count = int(np.all(dl_sorted[a:b] == dl_sorted[a], axis=1).sum())
        segments[int(k_sorted[a])] = (int(a), int(b - a) // right_count, right_count)
    return ChannelLayout(order, sign, segments)


def bipartite_factorize(basis: BasisTable, bipartition: Bipartition) -> BipartiteIndex:
    """Sort every channel of the basis into its layout across the cut; each
    block pairs one k_l segment per channel."""
    sites = set(bipartition.left) | set(bipartition.right)
    if sites != set(range(1, basis.n_sites + 1)):
        raise SectorError("bipartition must cover exactly the basis sites")
    left, right = sorted(bipartition.left), sorted(bipartition.right)
    if basis.kind == "fermion":
        image = np.argsort([s - 1 for s in left + right])
        channels = up, dn = tuple(
            _channel_layout(_occupancy(masks, basis.n_sites), left, right, image)
            for masks in (basis.up_masks, basis.dn_masks)
        )
        blocks = [
            BipartiteBlock(
                twice_ms_left=ku - kd,
                n_left=ku + kd,
                left_dim=su[1] * sd[1],
                right_dim=su[2] * sd[2],
                segments=(su, sd),
                cross_sign=(-1.0) ** (kd * (basis.sector.n_up - ku)),
            )
            for ku, su in up.segments.items()
            for kd, sd in dn.segments.items()
        ]
    else:
        channels = (_channel_layout(basis.digit_matrix(), left, right, None),)
        twice = basis.twice_site_spin
        blocks = [
            BipartiteBlock(2 * k - twice * len(left), len(left), s[1], s[2], (s,), 1.0)
            for k, s in channels[0].segments.items()
        ]
    blocks.sort(key=lambda b: (b.n_left, b.twice_ms_left))
    return BipartiteIndex(
        bipartition, basis.kind, basis.n_sites, basis.sector, basis.twice_site_spin,
        channels, tuple(blocks),
    )
