"""Shared brute-force oracles, independent of the package's vectorized paths.

Everything here works on explicit creation-operator strings: a state is the
ordered tuple of occupied orbitals (up orbitals 0..n-1, down orbitals
n..2n-1), and every sign comes from literally sorting operator lists.  The
one exception, `per_state_factors`, is a probe that reads the package's
coefficient map so tests can compare it with the oracles state by state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from edkit.entanglement import _coefficient_blocks


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


def brute_fock_rdm(vector, basis, left, right):
    """Left reduced density matrix of a sector vector in the full Fock space
    of the left sites, 4^n_left (or (2s+1)^n_left) square.

    Fermion basis states are operator strings reordered from the canonical
    (all up, all dn) order into block order (left up, left dn, right up,
    right dn) by literal sorting; each site then holds one of four local
    states, up + 2 dn.  Spin states are their digit strings.  Every
    coefficient lands at (left config, right config) of the Fock-space
    wavefunction psi, and rho = psi psi^T.
    """
    n = basis.n_sites
    left, right = sorted(left), sorted(right)
    base = 4 if basis.kind == "fermion" else basis.twice_site_spin + 1
    block_order = [chan * n + s - 1 for sites in (left, right) for chan in (0, 1) for s in sites]
    rank = {orb: pos for pos, orb in enumerate(block_order)}
    psi = np.zeros((base ** len(left), base ** len(right)))
    for i in range(basis.dim):
        st = basis.state_at(i)
        if basis.kind == "fermion":
            _, sign = sort_parity([rank[o] for o in orbitals_of(st.up_mask, st.dn_mask, n)])
            digits = [(st.up_mask >> s & 1) + 2 * (st.dn_mask >> s & 1) for s in range(n)]
        else:
            sign, digits = 1, st.digits
        row = sum(digits[s - 1] * base**k for k, s in enumerate(left))
        col = sum(digits[s - 1] * base**k for k, s in enumerate(right))
        psi[row, col] += sign * vector[i]
    return psi @ psi.T


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


def per_state_factors(basis, index):
    """(block, row, col, sign) arrays over the basis states, read off the
    package's coefficient map: the dim x dim identity is passed through it,
    and each of its columns must land as exactly one +-1 entry."""
    found = []
    for b, (block, m) in enumerate(_coefficient_blocks(np.eye(basis.dim), index)):
        row, j = np.nonzero(m)
        state, col = np.divmod(j, block.right_dim)
        found.append((np.full(len(row), b), row, col, m[row, j], state))
    block, row, col, sign, state = (np.concatenate(parts) for parts in zip(*found))
    assert np.array_equal(np.sort(state), np.arange(basis.dim)), "a state is not one entry"
    assert np.all(np.abs(sign) == 1)
    order = np.argsort(state)
    return block[order], row[order], col[order], sign[order].astype(np.int8)
