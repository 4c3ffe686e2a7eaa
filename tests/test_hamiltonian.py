import math

import numpy as np
import pytest

from conftest import brute_dense_hubbard
from edkit.basis import Sector
from edkit.hamiltonian import ModelError, ModelSpec, build_model, ohno_potential
from edkit.lattice import build_chain


def test_ohno_onsite_limit():
    assert ohno_potential(11.26, 11.26, 0.0) == pytest.approx(11.26, abs=1e-12)


def test_ohno_coulomb_tail():
    v = ohno_potential(11.26, 11.26, 1000.0)
    assert abs(v - 0.014397) / 0.014397 < 1e-3


def test_ohno_bond_distance():
    # direct evaluation of the interpolation formula
    expected = 14.397 / math.sqrt((28.794 / 22.52) ** 2 + 1.397**2)
    assert ohno_potential(11.26, 11.26, 1.397) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(7.6022387463779735, abs=1e-12)


def test_ohno_rejects_bad_input():
    with pytest.raises(ModelError):
        ohno_potential(-5.0, 5.0, 1.0)
    with pytest.raises(ModelError):
        ohno_potential(11.26, 11.26, -0.1)


def test_two_site_hubbard_closed_form():
    g = build_chain(2, 1.0)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(2, 0))
    vals = np.linalg.eigvalsh(h.dense())
    u, t = 4.0, -1.0
    root = math.sqrt(u * u + 16 * t * t)
    expected = sorted([(u - root) / 2, 0.0, u, (u + root) / 2])
    assert np.allclose(vals, expected, atol=1e-12)


def test_two_site_heisenberg_textbook():
    g = build_chain(2)
    h0 = build_model(g, ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5), Sector(None, 0))
    assert np.allclose(np.linalg.eigvalsh(h0.dense()), [-0.75, 0.25], atol=1e-14)
    h1 = build_model(g, ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5), Sector(None, 2))
    assert np.allclose(np.linalg.eigvalsh(h1.dense()), [0.25], atol=1e-14)


def test_ppp_reduces_to_hubbard_plus_density_term():
    # with V(r) multiplying (n_1 - 1)(n_2 - 1), the PPP and Hubbard matrices
    # differ by a pure diagonal that vanishes on covalent states; at r = 0
    # the Ohno value equals U, reproducing the Hubbard n.n structure
    g = build_chain(2, 1.397)
    hp = build_model(g, ModelSpec(kind="ppp", t=-2.4, U=11.26), Sector(2, 0))
    hu = build_model(g, ModelSpec(kind="hubbard", t=-2.4, U=11.26), Sector(2, 0))
    diff = hp.dense() - hu.dense()
    v = ohno_potential(11.26, 11.26, 1.397)
    assert np.abs(diff - np.diag(np.diag(diff))).max() < 1e-14
    basis = hp.basis
    for i in range(basis.dim):
        st = basis.state_at(i)
        q1 = st.occupation(1) - 1
        q2 = st.occupation(2) - 1
        assert diff[i, i] == pytest.approx(v * q1 * q2, abs=1e-12)
    assert ohno_potential(11.26, 11.26, 0.0) == pytest.approx(11.26, abs=1e-12)


def test_apply_zero_and_length_check():
    g = build_chain(4)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(4, 0))
    assert np.all(h.apply(np.zeros(h.dim)) == 0)
    with pytest.raises(ModelError):
        h.apply(np.zeros(h.dim + 1))


def test_apply_matches_brute_force_dense():
    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    oracle = brute_dense_hubbard(g, -1.0, 4.0, h.basis)
    assert np.abs(h.dense() - oracle).max() < 1e-13


def test_hermiticity_random_pairs(rng):
    g = build_chain(6)
    for spec in (
        ModelSpec(kind="hubbard", t=-1.0, U=4.0),
        ModelSpec(kind="ppp", t=-2.4, U=11.26),
        ModelSpec(kind="heisenberg", J=1.0, site_spin=1.0),
    ):
        sector = Sector(None, 0) if spec.kind == "heisenberg" else Sector(6, 0)
        h = build_model(g, spec, sector)
        scale = np.abs(h.matrix).max()
        for _ in range(100):
            x = rng.standard_normal(h.dim)
            y = rng.standard_normal(h.dim)
            lhs = x @ h.apply(y)
            rhs = h.apply(x) @ y
            assert abs(lhs - rhs) <= 1e-12 * scale * np.linalg.norm(x) * np.linalg.norm(y)


def test_hubbard_u0_equals_huckel():
    g = build_chain(6)
    h0 = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=0.0), Sector(6, 0))
    hk = build_model(g, ModelSpec(kind="huckel", t=-1.0), Sector(6, 0))
    assert (h0.matrix != hk.matrix).nnz == 0


def test_ppp_long_range_vanishes_on_covalent_states():
    g = build_chain(6)
    hp = build_model(g, ModelSpec(kind="ppp", t=-2.4, U=11.26), Sector(6, 0))
    hu = build_model(g, ModelSpec(kind="hubbard", t=-2.4, U=11.26), Sector(6, 0))
    diag = hp.matrix.diagonal() - hu.matrix.diagonal()
    basis = hp.basis
    for i in range(basis.dim):
        st = basis.state_at(i)
        if st.up_mask & st.dn_mask == 0 and st.up_mask | st.dn_mask == 0b111111:
            assert abs(diag[i]) < 1e-10


def test_s2_commutes_with_two_site_hamiltonian():
    g = build_chain(2)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(2, 0)).dense()
    basis = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(2, 0)).basis
    # in the canonical (all up, then all dn) operator ordering the covalent
    # flip-flop matrix element of S^2 carries a fermionic minus sign
    s2 = np.zeros((4, 4))
    for i in range(4):
        st = basis.state_at(i)
        if st.up_mask != st.dn_mask:  # covalent
            s2[i, i] = 1.0
            j = basis.index_of(type(st)(up_mask=st.dn_mask, dn_mask=st.up_mask))
            s2[i, j] = -1.0
    assert np.abs(h @ s2 - s2 @ h).max() < 1e-12


@pytest.mark.parametrize("n", [4, 6])
def test_bipartite_gauge_t_sign_invariance(n):
    g = build_chain(n)
    for sector in (Sector(n, 0), Sector(n, 2)):
        hp = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), sector)
        hm = build_model(g, ModelSpec(kind="hubbard", t=1.0, U=4.0), sector)
        assert np.allclose(
            np.linalg.eigvalsh(hp.dense()), np.linalg.eigvalsh(hm.dense()), atol=1e-10
        )


def test_sector_conservation_structural():
    g = build_chain(4)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(4, 0))
    coo = h.matrix.tocoo()
    basis = h.basis
    for i, j in zip(coo.row[:200], coo.col[:200]):
        si, sj = basis.state_at(int(i)), basis.state_at(int(j))
        ni = bin(si.up_mask).count("1") + bin(si.dn_mask).count("1")
        nj = bin(sj.up_mask).count("1") + bin(sj.dn_mask).count("1")
        tmi = bin(si.up_mask).count("1") - bin(si.dn_mask).count("1")
        tmj = bin(sj.up_mask).count("1") - bin(sj.dn_mask).count("1")
        assert (ni, tmi) == (nj, tmj) == (4, 0)


def test_model_sector_mismatch_errors():
    g = build_chain(4)
    with pytest.raises(ModelError):
        build_model(g, ModelSpec(kind="heisenberg"), Sector(4, 0))
    with pytest.raises(ModelError):
        build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=1.0), Sector(None, 0))
    with pytest.raises(ModelError):
        build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=1.0), Sector(12, 0))
    with pytest.raises(ModelError):
        ModelSpec(kind="unknown")
    with pytest.raises(ModelError):
        ModelSpec(kind="hubbard", t=float("nan"))


def test_ppp_z_override_shifts_diagonal():
    # z enters only through the long-range density term
    g = build_chain(4)
    h1 = build_model(g, ModelSpec(kind="ppp", t=-2.4, U=11.26, z=1.0), Sector(4, 0))
    h0 = build_model(g, ModelSpec(kind="ppp", t=-2.4, U=11.26, z=0.0), Sector(4, 0))
    diff = h0.dense() - h1.dense()
    assert np.abs(diff - np.diag(np.diag(diff))).max() < 1e-12
    basis = h1.basis
    d = g.distance_matrix
    for i in (0, 7, basis.dim - 1):
        st = basis.state_at(i)
        occ = np.array([st.occupation(s) for s in range(1, 5)], dtype=float)
        expected = 0.0
        for a in range(4):
            for b in range(a):
                v = ohno_potential(11.26, 11.26, float(d[a, b]))
                expected += v * (occ[a] * occ[b] - (occ[a] - 1) * (occ[b] - 1))
        assert diff[i, i] == pytest.approx(expected, abs=1e-10)


def test_spin_one_matrix_elements_exact():
    # flip-flop elements for spin 1 are exactly J (the two sqrt(2) ladder
    # factors multiply to an integer)
    g = build_chain(2)
    h = build_model(g, ModelSpec(kind="heisenberg", J=1.0, site_spin=1.0), Sector(None, 0))
    dense = h.dense()
    offdiag = dense[~np.eye(h.dim, dtype=bool)]
    nonzero = offdiag[offdiag != 0.0]
    assert np.all(nonzero == 1.0)
    vals = np.linalg.eigvalsh(dense)
    # two spin-1 sites: S=0,1,2 with energies -2, -1, 1
    assert np.allclose(vals, [-2.0, -1.0, 1.0], atol=1e-12)
