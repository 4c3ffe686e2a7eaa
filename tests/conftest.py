"""Shared brute-force oracles, independent of the package's vectorized paths.

Everything here works on explicit creation-operator strings: a state is the
ordered tuple of occupied orbitals (up orbitals 0..n-1, down orbitals
n..2n-1), and every sign comes from literally sorting operator lists.
"""

from __future__ import annotations

import math

import numpy as np
import pytest


def sort_parity(seq):
    """(sorted tuple, parity of the sorting permutation); None on repeats."""
    items = list(seq)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] == items[j + 1]:
                return None, 0
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return tuple(items), sign


def orbitals_of(up_mask: int, dn_mask: int, n: int):
    orbs = [s for s in range(n) if up_mask >> s & 1]
    orbs += [n + s for s in range(n) if dn_mask >> s & 1]
    return tuple(orbs)


def masks_of(orbs, n: int):
    up = sum(1 << o for o in orbs if o < n)
    dn = sum(1 << (o - n) for o in orbs if o >= n)
    return up, dn


def brute_permute_sites(up_mask: int, dn_mask: int, n: int, perm):
    """Apply a site permutation to every creation operator and re-sort."""
    mapped = []
    for s in range(n):
        if up_mask >> s & 1:
            mapped.append(perm[s] - 1)
    for s in range(n):
        if dn_mask >> s & 1:
            mapped.append(n + perm[s] - 1)
    sorted_orbs, sign = sort_parity(mapped)
    new_up, new_dn = masks_of(sorted_orbs, n)
    return new_up, new_dn, sign


def brute_block_reorder_sign(up_mask: int, dn_mask: int, n: int, left, right):
    """Parity of reordering canonical (all up, all dn) operator strings into
    block order (left up, left dn, right up, right dn), each ascending."""
    left = sorted(left)
    right = sorted(right)
    canonical = orbitals_of(up_mask, dn_mask, n)
    rank = {}
    pos = 0
    for sites, chan in ((left, 0), (left, 1), (right, 0), (right, 1)):
        for s in sites:
            rank[chan * n + (s - 1)] = pos
            pos += 1
    target_keys = [rank[o] for o in canonical]
    _, sign = sort_parity(target_keys)
    return sign


def brute_dense_hubbard(geometry, t: float, u: float, basis):
    """Dense Hamiltonian assembled one operator string at a time."""
    n = geometry.n_sites
    dim = basis.dim
    h = np.zeros((dim, dim))
    states = [basis.state_at(i) for i in range(dim)]
    index = {(s.up_mask, s.dn_mask): i for i, s in enumerate(states)}

    def annihilate(orbs, o):
        if o not in orbs:
            return None, 0
        k = orbs.index(o)
        return tuple(x for x in orbs if x != o), (-1) ** k

    def create(orbs, o):
        if o in orbs:
            return None, 0
        below = sum(1 for x in orbs if x < o)
        merged, _ = sort_parity(orbs + (o,))
        return merged, (-1) ** below

    for i, st in enumerate(states):
        orbs = orbitals_of(st.up_mask, st.dn_mask, n)
        # diagonal: U per doubly occupied site
        h[i, i] += u * bin(st.up_mask & st.dn_mask).count("1")
        for a, b in geometry.bonds:
            for chan in (0, 1):
                for src, dst in ((a, b), (b, a)):
                    o_src = chan * n + (src - 1)
                    o_dst = chan * n + (dst - 1)
                    mid, s1 = annihilate(orbs, o_src)
                    if mid is None:
                        continue
                    out, s2 = create(mid, o_dst)
                    if out is None:
                        continue
                    j = index[masks_of(out, n)]
                    h[j, i] += -t * s1 * s2
    return h


def brute_dense_heisenberg(geometry, j: float, basis):
    """Dense J sum_<ab> S_a . S_b assembled one digit string at a time, with
    S+-|s, m> = sqrt(s(s+1) - m(m +- 1)) |s, m +- 1> on each site."""
    s = basis.twice_site_spin / 2
    dim = basis.dim
    h = np.zeros((dim, dim))
    states = [basis.state_at(i).digits for i in range(dim)]
    index = {digits: i for i, digits in enumerate(states)}

    def ladder(m, step):
        return math.sqrt(s * (s + 1) - m * (m + step))

    for i, digits in enumerate(states):
        m = [d - s for d in digits]
        for a, b in geometry.bonds:
            h[i, i] += j * m[a - 1] * m[b - 1]
            for up, dn in ((a, b), (b, a)):
                if m[up - 1] < s and m[dn - 1] > -s:
                    new = list(digits)
                    new[up - 1] += 1
                    new[dn - 1] -= 1
                    amp = ladder(m[up - 1], 1) * ladder(m[dn - 1], -1)
                    h[index[tuple(new)], i] += 0.5 * j * amp
    return h


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)
