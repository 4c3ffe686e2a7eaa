"""Lattice geometries and site bipartitions.

Sites are numbered 1..n_sites.  A geometry is immutable after construction:
coordinates (in Angstrom), the bond set, and an optional two-fold symmetry
permutation are all frozen, so geometries can be shared freely.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Geometry",
    "Bipartition",
    "GeometryError",
    "build_chain",
    "build_icosahedron",
    "load_geometry",
    "save_geometry",
    "format_geometry",
    "half_cut",
]


# Edge lengths `build_icosahedron` takes, checked before any coordinate
# arithmetic: the diameter is 1.902 edges, so its square stays below the
# largest float, and the C2 axis (an edge midpoint, 0.809 edges from the
# centre) has a squared norm of at least the smallest normal float.
ICOSAHEDRON_EDGE_RANGE = (math.sqrt(sys.float_info.min) / 0.8, math.sqrt(sys.float_info.max) / 2.0)


class GeometryError(ValueError):
    """Invalid geometry data (bad indices, self-bonds, coincident sites...)."""


def _pair_distances(coords: np.ndarray) -> np.ndarray:
    """|r_i - r_j| for every pair of sites, as an (n, n) array."""
    delta = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(delta * delta, axis=-1))


def _normalize_bonds(bonds: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out = set()
    for i, j in bonds:
        if i == j:
            raise GeometryError(f"bond ({i},{j}) is a self-pair")
        out.add((min(i, j), max(i, j)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class Geometry:
    """Site coordinates plus the bonded-pair set of a finite lattice.

    Parameters
    ----------
    name : str
        Free-form tag ("chain-10", "icosahedron", ...).
    coords : ndarray, shape (n_sites, 3)
        Cartesian site positions in Angstrom.
    bonds : tuple of (i, j)
        Unordered bonded pairs, 1-based site indices.
    c2_perm : tuple of int, optional
        Image of each site under a declared two-fold symmetry operation
        (c2_perm[i-1] is the image of site i).  None if the geometry does
        not declare one.
    """

    name: str
    coords: np.ndarray
    bonds: tuple[tuple[int, int], ...]
    c2_perm: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 1:
            raise GeometryError(f"coords must have shape (n_sites, 3), got {coords.shape}")
        finite = np.isfinite(coords).all(axis=1)
        if not finite.all():
            site = int(np.argmin(finite)) + 1
            bad = coords[site - 1].tolist()
            raise GeometryError(f"site {site} coordinates must be finite, got {bad}")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "bonds", _normalize_bonds(self.bonds))
        n = coords.shape[0]
        for i, j in self.bonds:
            if not (1 <= i <= n and 1 <= j <= n):
                raise GeometryError(f"bond ({i},{j}) references a site outside 1..{n}")
        rows = coords[np.lexsort(coords.T[::-1])]  # equal rows end up side by side
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise GeometryError("two sites coincide (r_ij = 0 for i != j)")
        if self.c2_perm is not None:
            perm = tuple(int(p) for p in self.c2_perm)
            if sorted(perm) != list(range(1, n + 1)):
                raise GeometryError("c2_perm is not a permutation of 1..n_sites")
            object.__setattr__(self, "c2_perm", perm)

    @property
    def n_sites(self) -> int:
        return self.coords.shape[0]

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        d = _pair_distances(self.coords)
        d.flags.writeable = False
        return d

    def distance(self, i: int, j: int) -> float:
        return float(self.distance_matrix[i - 1, j - 1])


@dataclass(frozen=True)
class Bipartition:
    """A cut of the site set into non-empty left and right parts."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        left = tuple(int(s) for s in self.left)
        right = tuple(int(s) for s in self.right)
        if not left or not right:
            raise GeometryError("both parts of a bipartition must be non-empty")
        if set(left) & set(right):
            raise GeometryError("left and right parts overlap")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


def build_chain(n_sites: int, bond_length: float = 1.397) -> Geometry:
    """Open chain of equally spaced collinear sites bonded consecutively."""
    if n_sites < 2:
        raise GeometryError(f"a chain needs at least 2 sites, got {n_sites}")
    if not 0 < bond_length < np.inf:
        raise GeometryError(f"bond_length must be positive and finite, got {bond_length}")
    if float(bond_length) * (n_sites - 1) == np.inf:  # Python floats overflow without NumPy's warning
        raise GeometryError(f"bond_length {bond_length} puts the chain's end beyond the float range")
    coords = np.zeros((n_sites, 3))
    coords[:, 0] = bond_length * np.arange(n_sites)
    bonds = tuple((i, i + 1) for i in range(1, n_sites))
    perm = tuple(range(n_sites, 0, -1))
    return Geometry(name=f"chain-{n_sites}", coords=coords, bonds=bonds, c2_perm=perm)


def _icosahedron_coords(edge: float) -> np.ndarray:
    # Pole-oriented regular icosahedron.  Canonical site ordering:
    #   site 1       apex (0, 0, +R)
    #   sites 2-6    upper ring, azimuth 2*pi*k/5, k = 0..4, height +z_r
    #   sites 7-11   lower ring, azimuth 2*pi*(k + 1/2)/5, height -z_r
    #   site 12      antapex (0, 0, -R)
    # Sites 1-6 form the upper half used by the canonical 6|6 cut.
    circum = edge / 4.0 * math.sqrt(10.0 + 2.0 * math.sqrt(5.0))
    ring_r = edge / (2.0 * math.sin(math.pi / 5.0))
    z_ring = circum - edge * edge / (2.0 * circum)
    coords = np.zeros((12, 3))
    coords[0] = (0.0, 0.0, circum)
    for k in range(5):
        a = 2.0 * math.pi * k / 5.0
        coords[1 + k] = (ring_r * math.cos(a), ring_r * math.sin(a), z_ring)
        b = 2.0 * math.pi * (k + 0.5) / 5.0
        coords[6 + k] = (ring_r * math.cos(b), ring_r * math.sin(b), -z_ring)
    coords[11] = (0.0, 0.0, -circum)
    return coords


def _min_distance_pairs(coords: np.ndarray) -> tuple[tuple[int, int], ...]:
    n = coords.shape[0]
    d = _pair_distances(coords)
    iu = np.triu_indices(n, k=1)
    dmin = d[iu].min()
    pairs = [
        (int(i) + 1, int(j) + 1)
        for i, j in zip(*iu)
        if d[i, j] <= dmin * (1.0 + 1e-9)
    ]
    return tuple(pairs)


def _permutation_from_rotation(coords: np.ndarray, axis: np.ndarray) -> tuple[int, ...] | None:
    """Site permutation induced by a pi rotation about `axis`, or None."""
    n = axis / np.linalg.norm(axis)
    rot = 2.0 * np.outer(n, n) - np.eye(3)
    centered = coords - coords.mean(axis=0)
    mapped = centered @ rot.T
    scale = max(1.0, float(np.abs(centered).max()))
    perm = []
    for row in mapped:
        dist = np.linalg.norm(centered - row, axis=1)
        k = int(np.argmin(dist))
        if dist[k] > 1e-8 * scale:
            return None
        perm.append(k + 1)
    if sorted(perm) != list(range(1, coords.shape[0] + 1)):
        return None
    return tuple(perm)


def _is_symmetry_perm(d: np.ndarray, bonds: tuple[tuple[int, int], ...],
                      perm: Sequence[int]) -> bool:
    """True if `perm` preserves the pairwise distances `d` (`_pair_distances`
    of the coordinates) and the bond set."""
    idx = np.asarray(perm, dtype=int) - 1
    if not np.allclose(d[np.ix_(idx, idx)], d, rtol=0.0, atol=1e-8 * max(1.0, d.max())):
        return False
    mapped = {(min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1])) for i, j in bonds}
    return mapped == set(bonds)


def build_icosahedron(edge_length: float = 1.397) -> Geometry:
    """Regular icosahedron: 12 sites, the 30 edges as bonds.

    The canonical ordering places the apex plus the upper five-site ring at
    sites 1-6, so ``half_cut(geometry, 6)`` selects the upper half.  The
    declared two-fold axis passes through the midpoints of the opposite
    edges (1,2) and (9,12).
    """
    if not 0 < edge_length < np.inf:
        raise GeometryError(f"edge_length must be positive and finite, got {edge_length}")
    low, high = ICOSAHEDRON_EDGE_RANGE
    if not low <= edge_length <= high:
        raise GeometryError(
            f"edge_length must lie in [{low:.6g}, {high:.6g}], where the squared pair distances "
            f"stay finite and the C2 axis keeps a normal squared norm, got {edge_length}"
        )
    coords = _icosahedron_coords(edge_length)
    bonds = _min_distance_pairs(coords)
    axis = 0.5 * (coords[0] + coords[1])
    perm = _permutation_from_rotation(coords, axis)
    if perm is None or not _is_symmetry_perm(_pair_distances(coords), bonds, perm):
        raise GeometryError("internal error: icosahedron C2 axis construction failed")
    return Geometry(name="icosahedron", coords=coords, bonds=bonds, c2_perm=perm)


def _detect_c2(coords: np.ndarray, bonds: tuple[tuple[int, int], ...]) -> tuple[int, ...] | None:
    n = coords.shape[0]
    reversal = tuple(range(n, 0, -1))
    d = _pair_distances(coords)
    if _is_symmetry_perm(d, bonds, reversal):
        return reversal
    centered = coords - coords.mean(axis=0)
    scale = max(1.0, float(np.abs(centered).max()))
    for i, j in bonds:
        axis = 0.5 * (centered[i - 1] + centered[j - 1])
        if np.linalg.norm(axis) < 1e-8 * scale:
            continue
        perm = _permutation_from_rotation(coords, axis)
        if perm is not None and any(perm[k] != k + 1 for k in range(n)):
            if _is_symmetry_perm(d, bonds, perm):
                return perm
    return None


def half_cut(geometry: Geometry, left_size: int) -> Bipartition:
    """Cut off the first `left_size` sites of the canonical ordering.

    For chains this is the leading segment; for the icosahedron with
    left_size = 6 it is the canonical upper half.
    """
    n = geometry.n_sites
    if not 1 <= left_size < n:
        raise GeometryError(f"left_size must be in 1..{n - 1}, got {left_size}")
    return Bipartition(tuple(range(1, left_size + 1)), tuple(range(left_size + 1, n + 1)))


# --- geometry text format ---------------------------------------------------
#
#   # comment lines start with '#'
#   sites N
#   i x y z          (N lines, Angstrom)
#   bonds M
#   i j              (M lines)


def format_geometry(geometry: Geometry) -> str:
    lines = [f"# {geometry.name}", f"sites {geometry.n_sites}"]
    for i in range(geometry.n_sites):
        x, y, z = geometry.coords[i]
        lines.append(f"{i + 1} {x:.17g} {y:.17g} {z:.17g}")
    lines.append(f"bonds {len(geometry.bonds)}")
    for i, j in geometry.bonds:
        lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def save_geometry(geometry: Geometry, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_geometry(geometry))


class GeometryParseError(GeometryError):
    """Malformed geometry file; the message carries the offending line number."""


def load_geometry(path) -> Geometry:
    """Parse a geometry text file, auto-detecting a two-fold symmetry if any."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    name = "loaded"
    rows: list[tuple[int, str]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            comment = stripped.lstrip("#").strip()
            if comment and name == "loaded":
                name = comment
            continue
        if stripped:
            rows.append((lineno, stripped))
    pos = 0

    def take(expect: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(rows):
            raise GeometryParseError(f"line {rows[-1][0] if rows else 0}: missing '{expect}' section")
        lineno, text = rows[pos]
        pos += 1
        return lineno, text.split()

    def take_count(word: str, low: int) -> int:
        """The count of a 'word N' section header, at most the rows that follow."""
        lineno, tok = take(word)
        if len(tok) != 2 or tok[0] != word:
            raise GeometryParseError(f"line {lineno}: expected '{word} N'")
        try:
            count = int(tok[1])
        except ValueError:
            raise GeometryParseError(f"line {lineno}: {word[:-1]} count is not an integer") from None
        if not low <= count <= len(rows) - pos:
            raise GeometryParseError(
                f"line {lineno}: {word[:-1]} count {count} must be in {low}..{len(rows) - pos}, "
                "the rows that follow"
            )
        return count

    n = take_count("sites", 1)
    coords = np.zeros((n, 3))
    seen = set()
    for _ in range(n):
        lineno, tok = take("site row")
        if len(tok) != 4:
            raise GeometryParseError(f"line {lineno}: expected 'i x y z'")
        try:
            i = int(tok[0])
            xyz = [float(v) for v in tok[1:]]
        except ValueError:
            raise GeometryParseError(f"line {lineno}: malformed site row") from None
        if not 1 <= i <= n or i in seen:
            raise GeometryParseError(f"line {lineno}: bad or duplicate site index {i}")
        seen.add(i)
        coords[i - 1] = xyz
    m = take_count("bonds", 0)
    bonds = []
    for _ in range(m):
        lineno, tok = take("bond row")
        if len(tok) != 2:
            raise GeometryParseError(f"line {lineno}: expected 'i j'")
        try:
            i, j = int(tok[0]), int(tok[1])
        except ValueError:
            raise GeometryParseError(f"line {lineno}: malformed bond row") from None
        if i == j:
            raise GeometryParseError(f"line {lineno}: bond ({i},{j}) is a self-pair")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GeometryParseError(f"line {lineno}: bond ({i},{j}) references a site outside 1..{n}")
        bonds.append((i, j))
    if pos != len(rows):
        raise GeometryParseError(f"line {rows[pos][0]}: unexpected trailing content")
    norm_bonds = _normalize_bonds(bonds)
    perm = _detect_c2(coords, norm_bonds)
    return Geometry(name=name, coords=coords, bonds=norm_bonds, c2_perm=perm)
