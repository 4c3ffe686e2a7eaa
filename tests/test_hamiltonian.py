import math

import numpy as np
import pytest

from conftest import brute_dense_heisenberg, brute_dense_hubbard
from edkit.basis import Sector
from edkit.hamiltonian import ModelError, ModelSpec, build_model, ohno_potential
from edkit.lattice import Geometry, build_chain, build_icosahedron


def _ring(n: int) -> Geometry:
    """n sites on a circle of unit radius, bonded around it: bond (1, n)
    passes over every other site of the canonical ordering."""
    phi = 2 * np.pi * np.arange(n) / n
    coords = np.stack([np.cos(phi), np.sin(phi), np.zeros(n)], axis=1)
    return Geometry(name=f"ring-{n}", coords=coords, bonds=tuple((i, i % n + 1) for i in range(1, n + 1)))


def _fermion_sectors(n_sites: int, max_electrons: int):
    for ne in range(max_electrons + 1):
        top = min(ne, 2 * n_sites - ne)
        for tm in range(-top, top + 1, 2):
            yield Sector(ne, tm)


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
    vals = np.linalg.eigvalsh(h.matrix.toarray())
    u, t = 4.0, -1.0
    root = math.sqrt(u * u + 16 * t * t)
    expected = sorted([(u - root) / 2, 0.0, u, (u + root) / 2])
    assert np.allclose(vals, expected, atol=1e-12)


def test_two_site_heisenberg_textbook():
    g = build_chain(2)
    h0 = build_model(g, ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5), Sector(None, 0))
    assert np.allclose(np.linalg.eigvalsh(h0.matrix.toarray()), [-0.75, 0.25], atol=1e-14)
    h1 = build_model(g, ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5), Sector(None, 2))
    assert np.allclose(np.linalg.eigvalsh(h1.matrix.toarray()), [0.25], atol=1e-14)


def test_ppp_reduces_to_hubbard_plus_density_term():
    # with V(r) multiplying (n_1 - 1)(n_2 - 1), the PPP and Hubbard matrices
    # differ by a pure diagonal that vanishes on covalent states; at r = 0
    # the Ohno value equals U, reproducing the Hubbard n.n structure
    g = build_chain(2, 1.397)
    hp = build_model(g, ModelSpec(kind="ppp", t=-2.4, U=11.26), Sector(2, 0))
    hu = build_model(g, ModelSpec(kind="hubbard", t=-2.4, U=11.26), Sector(2, 0))
    diff = hp.matrix.toarray() - hu.matrix.toarray()
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
    assert np.all(h.matrix @ np.zeros(h.dim) == 0)


def test_apply_matches_brute_force_dense():
    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    oracle = brute_dense_hubbard(g, -1.0, 4.0, h.basis)
    assert np.abs(h.matrix.toarray() - oracle).max() < 1e-13


@pytest.mark.parametrize(
    "geometry, max_electrons",
    [(_ring(5), 10), (build_icosahedron(), 3)],
    ids=["ring5-every-sector", "icosahedron-n-le-3"],
)
def test_hubbard_matches_brute_force_on_long_bonds(geometry, max_electrons):
    # the oracle forms the same products (-t times signs, U times a count),
    # so every entry, Jordan-Wigner sign included, must agree exactly
    spec = ModelSpec(kind="hubbard", t=-1.3, U=4.0)
    for sector in _fermion_sectors(geometry.n_sites, max_electrons):
        h = build_model(geometry, spec, sector)
        oracle = brute_dense_hubbard(geometry, -1.3, 4.0, h.basis)
        assert np.array_equal(h.matrix.toarray(), oracle), sector


@pytest.mark.parametrize("site_spin", [0.5, 1.0])
@pytest.mark.parametrize("geometry", [build_chain(4), _ring(4)], ids=["chain4", "ring4"])
def test_heisenberg_matches_brute_force_dense(geometry, site_spin):
    spec = ModelSpec(kind="heisenberg", J=0.7, site_spin=site_spin)
    top = round(2 * site_spin) * geometry.n_sites
    for tm in range(-top, top + 1, 2):
        h = build_model(geometry, spec, Sector(None, tm))
        oracle = brute_dense_heisenberg(geometry, 0.7, h.basis)
        dense = h.matrix.toarray()
        # the diagonal is the same J m_a m_b sum; the flip-flop amplitudes
        # are formed from m rather than from digits, so they agree to rounding
        assert np.array_equal(np.diag(dense), np.diag(oracle)), tm
        assert np.abs(dense - oracle).max() <= 1e-14, tm


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
            lhs = x @ (h.matrix @ y)
            rhs = (h.matrix @ x) @ y
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
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(2, 0)).matrix.toarray()
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
            np.linalg.eigvalsh(hp.matrix.toarray()), np.linalg.eigvalsh(hm.matrix.toarray()), atol=1e-10
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
    diff = h0.matrix.toarray() - h1.matrix.toarray()
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
    dense = h.matrix.toarray()
    offdiag = dense[~np.eye(h.dim, dtype=bool)]
    nonzero = offdiag[offdiag != 0.0]
    assert np.all(nonzero == 1.0)
    vals = np.linalg.eigvalsh(dense)
    # two spin-1 sites: S=0,1,2 with energies -2, -1, 1
    assert np.allclose(vals, [-2.0, -1.0, 1.0], atol=1e-12)
