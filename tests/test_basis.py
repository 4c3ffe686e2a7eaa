import itertools
from math import comb

import numpy as np
import pytest

from conftest import brute_block_reorder_sign, per_state_factors
from edkit.basis import (
    FermionState,
    Sector,
    SectorError,
    bipartite_factorize,
    enumerate_sector,
    multiplet_counts,
    sector_dimension,
)
from edkit.lattice import Bipartition, build_chain, half_cut


def test_sector_invariants():
    with pytest.raises(SectorError):
        Sector(2, 4)
    with pytest.raises(SectorError):
        Sector(2, 1)  # parity mismatch
    with pytest.raises(SectorError):
        Sector(-1, 0)
    assert Sector(4, 2).n_up == 3


def test_enumerate_dimensions():
    g = build_chain(10)
    b = enumerate_sector(g, "hubbard", Sector(10, 0))
    assert b.dim == comb(10, 5) ** 2 == 63504
    assert sector_dimension(12, "hubbard", Sector(12, 0)) == comb(12, 6) ** 2 == 853776


def test_enumerate_polarized_singleton():
    g = build_chain(2)
    b = enumerate_sector(g, "hubbard", Sector(2, 2))
    assert b.dim == 1
    st = b.state_at(0)
    assert st == FermionState(up_mask=0b11, dn_mask=0)


def test_empty_sector_is_not_an_error():
    g = build_chain(2)
    b = enumerate_sector(g, "hubbard", Sector(4, 4))  # would need 4 up spins on 2 sites
    assert b.dim == 0


def test_state_index_roundtrip():
    g = build_chain(8)
    b = enumerate_sector(g, "hubbard", Sector(8, 0))
    for i in range(b.dim):
        assert b.index_of(b.state_at(i)) == i


def test_state_index_roundtrip_every_sector_small():
    # the whole Fock space of a 4-site system, sector by sector
    g = build_chain(4)
    total = 0
    for ne in range(0, 9):
        for tm in range(-min(ne, 8 - ne), min(ne, 8 - ne) + 1, 2):
            b = enumerate_sector(g, "hubbard", Sector(ne, tm))
            for i in range(b.dim):
                assert b.index_of(b.state_at(i)) == i
            total += b.dim
    assert total == 4**4


def test_state_index_roundtrip_odd_filling_eight_sites():
    g = build_chain(8)
    for sector in (Sector(7, 1), Sector(5, 3), Sector(9, 1)):
        b = enumerate_sector(g, "hubbard", sector)
        for i in range(0, b.dim, 37):
            assert b.index_of(b.state_at(i)) == i


def test_spin_state_roundtrip():
    g = build_chain(6)
    b = enumerate_sector(g, "heisenberg", Sector(None, 0), site_spin=1.0)
    for i in range(b.dim):
        assert b.index_of(b.state_at(i)) == i


def test_spin_dimensions_brute_force():
    for n in (4, 6):
        for twice_spin, spin in ((1, 0.5), (2, 1.0)):
            for tm in range(-2, 3):
                count = sum(
                    1
                    for digits in itertools.product(range(twice_spin + 1), repeat=n)
                    if 2 * sum(digits) - n * twice_spin == tm
                )
                got = sector_dimension(n, "heisenberg", Sector(None, tm), site_spin=spin)
                assert got == count


def test_multiplet_counts_table_exact():
    counts = multiplet_counts(12, "hubbard")
    expected = {0: 226512, 2: 382239, 4: 196625, 6: 44044, 8: 4212, 10: 143, 12: 1}
    assert counts == expected


def test_multiplet_counts_two_site_brute_force():
    # S^2 on the half-filled M_S = 0 sector, assembled by hand: the two
    # covalent states form one singlet and one triplet, the two ionic
    # states are singlets.
    g = build_chain(2)
    b = enumerate_sector(g, "hubbard", Sector(2, 0))
    order = [(b.state_at(i).up_mask, b.state_at(i).dn_mask) for i in range(4)]
    s2 = np.zeros((4, 4))
    cov = [i for i, (u, d) in enumerate(order) if u != d]
    i1, i2 = cov
    s2[i1, i1] = s2[i2, i2] = 1.0
    s2[i1, i2] = s2[i2, i1] = 1.0
    vals = np.linalg.eigvalsh(s2)
    n_singlet = int(np.sum(np.abs(vals) < 1e-12))
    n_triplet = int(np.sum(np.abs(vals - 2.0) < 1e-12))
    counts = multiplet_counts(2, "hubbard")
    assert counts[0] == n_singlet == 3
    assert counts[2] == n_triplet == 1


def test_multiplet_counts_sum_rule():
    # sum over S of (2S+1) * count(S) recovers the whole half-filled space
    for n in (2, 4, 6):
        counts = multiplet_counts(n, "hubbard")
        total = sum((ts + 1) * c for ts, c in counts.items())
        assert total == comb(2 * n, n)
    counts = multiplet_counts(6, "heisenberg", site_spin=0.5)
    assert sum((ts + 1) * c for ts, c in counts.items()) == 2**6


def test_block_dimension_sum():
    g = build_chain(6)
    for cut in (half_cut(g, 2), half_cut(g, 3), Bipartition((1, 3, 5), (2, 4, 6))):
        for sector in (Sector(6, 0), Sector(6, 2), Sector(4, 0)):
            b = enumerate_sector(g, "hubbard", sector)
            fi = bipartite_factorize(b, cut)
            assert sum(bl.left_dim * bl.right_dim for bl in fi.blocks) == b.dim
            covered = len(per_state_factors(b, fi)[0])
            assert covered == b.dim


def test_bipartite_injective():
    g = build_chain(4)
    b = enumerate_sector(g, "hubbard", Sector(4, 0))
    fi = bipartite_factorize(b, half_cut(g, 2))
    seen = set()
    for k, r, c, _ in zip(*per_state_factors(b, fi)):
        bl = fi.blocks[k]
        key = (bl.twice_ms_left, bl.n_left, int(r), int(c))
        assert key not in seen
        seen.add(key)
    assert len(seen) == b.dim


def test_spin_model_signs_all_positive():
    g = build_chain(6)
    b = enumerate_sector(g, "heisenberg", Sector(None, 0))
    fi = bipartite_factorize(b, half_cut(g, 3))
    block, _, _, sign = per_state_factors(b, fi)
    for k in range(len(fi.blocks)):
        assert np.all(sign[block == k] == 1)


def test_fermionic_sign_no_left_dn():
    # states with no down electrons in the left block reorder trivially
    g = build_chain(4)
    b = enumerate_sector(g, "hubbard", Sector(4, 0))
    fi = bipartite_factorize(b, half_cut(g, 2))
    block, _, _, sign = per_state_factors(b, fi)
    for k, bl in enumerate(fi.blocks):
        n_dn_left = (bl.n_left - bl.twice_ms_left) // 2
        if n_dn_left == 0:
            assert np.all(sign[block == k] == 1)


@pytest.mark.parametrize("sector", [Sector(4, 0), Sector(4, 2), Sector(2, 0), Sector(3, 1)])
@pytest.mark.parametrize("cut", [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((2, 4), (1, 3))])
def test_fermionic_signs_against_permutation_oracle(sector, cut):
    g = build_chain(4)
    b = enumerate_sector(g, "hubbard", sector)
    assert b.dim <= 36
    fi = bipartite_factorize(b, Bipartition(*cut))
    signs = per_state_factors(b, fi)[3]
    for i in range(b.dim):
        st = b.state_at(i)
        expected = brute_block_reorder_sign(st.up_mask, st.dn_mask, 4, cut[0], cut[1])
        assert signs[i] == expected, f"state {st} cut {cut}"


def test_factorize_rejects_partial_cover():
    g = build_chain(4)
    b = enumerate_sector(g, "hubbard", Sector(4, 0))
    with pytest.raises(SectorError):
        bipartite_factorize(b, Bipartition((1, 2), (3,)))


def test_kind_validation():
    g = build_chain(4)
    with pytest.raises(SectorError):
        enumerate_sector(g, "hubbard", Sector(None, 0))
    with pytest.raises(SectorError):
        enumerate_sector(g, "heisenberg", Sector(4, 0))
    with pytest.raises(SectorError):
        enumerate_sector(g, "nonsense", Sector(4, 0))
