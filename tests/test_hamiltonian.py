import math
import multiprocessing
import re

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import brute_dense_heisenberg, brute_dense_hubbard, ring
from edkit import hamiltonian
from edkit.basis import Sector
from edkit.hamiltonian import ModelError, ModelSpec, SparseOperator, build_model, ohno_potential
from edkit.lattice import build_chain, build_icosahedron


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
    assert h.kron is not None
    assert np.all(h @ np.zeros(h.dim) == 0)
    spin = build_model(g, ModelSpec(kind="heisenberg"), Sector(None, 0))
    for op in (h, spin):
        for bad in (np.zeros(op.dim + 1), np.zeros((op.dim, 1)), np.zeros((1, op.dim))):
            with pytest.raises(ModelError, match=re.escape(f"length {op.dim}, got shape {bad.shape}")):
                op @ bad


def test_apply_matches_brute_force_dense():
    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    oracle = brute_dense_hubbard(g, -1.0, 4.0, h.basis)
    assert np.abs(h.matrix.toarray() - oracle).max() < 1e-13


@pytest.mark.parametrize(
    "geometry, max_electrons",
    [(ring(5), 10), (build_icosahedron(), 3)],
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


_SMALL_GRAPHS = [build_chain(n) for n in range(2, 7)] + [ring(n) for n in range(3, 7)]


def _whole_vector_product(h, x):
    """T_up X + (T_dn Xᵀ)ᵀ + D * X on the whole n_up x n_dn layout."""
    t_up, t_dn, diag = h.kron
    v = x.reshape(diag.shape)
    out = t_up @ v
    out += (t_dn @ v.T).T
    out += diag * v
    return out.reshape(-1)


@pytest.mark.parametrize("geometry", _SMALL_GRAPHS, ids=[g.name for g in _SMALL_GRAPHS])
def test_kronecker_product_matches_oracles(geometry, monkeypatch, rng):
    # `h @ x` applies T_up ⊗ I + I ⊗ T_dn + D without the CSR matrix; on every
    # sector, empty spin channels included, its columns must match the
    # operator-string oracle (Hückel, Hubbard) and the CSR matrix (PPP).  A
    # random vector's product must be the whole-vector formula's bit for bit,
    # in the default row blocks and in blocks of one to five rows on one and
    # on two workers
    models = (
        (ModelSpec(kind="huckel", t=-1.3), 0.0),
        (ModelSpec(kind="hubbard", t=-1.3, U=4.0), 4.0),
        (ModelSpec(kind="ppp", t=-2.4, U=11.26), None),
    )
    n = geometry.n_sites
    for sector in _fermion_sectors(n, 2 * n):
        for spec, u in models:
            h = build_model(geometry, spec, sector)
            assert h.kron is not None
            kron = np.column_stack([h @ e for e in np.eye(h.dim)])
            oracle = h.matrix.toarray() if u is None else brute_dense_hubbard(geometry, spec.t, u, h.basis)
            assert np.abs(kron - oracle).max() <= 1e-13, (spec.kind, sector)
            x = rng.standard_normal(h.dim)
            want = _whole_vector_product(h, x)
            assert np.array_equal(h @ x, want), (spec.kind, sector)
            with monkeypatch.context() as m:
                m.setattr(hamiltonian, "_BLOCK", 5)
                small = SparseOperator(h.matrix, h.basis, geometry, spec, h.kron)
                for workers in (1, 2):
                    m.setattr(hamiltonian, "_workers", lambda: workers)
                    assert np.array_equal(small @ x, want), (spec.kind, sector, workers)


@pytest.mark.parametrize("kind", ["huckel", "hubbard", "ppp"])
def test_kron_sum_blocks_match_one_whole_matrix_sum(kind, monkeypatch):
    # blocks of one row of T_up on two workers, the default blocks on one
    # worker and the whole-matrix sum give the same CSR arrays bit for bit
    g = build_chain(6)
    h = build_model(g, ModelSpec(kind=kind, t=-1.3, U=4.0), Sector(6, 0))
    t_up, t_dn, diag = h.kron
    nu, nd = diag.shape
    whole = sp.kron(t_up, sp.identity(nd)) + sp.kron(sp.identity(nu), t_dn)
    if kind != "huckel":
        whole = whole + sp.diags(diag.reshape(-1))
    whole = whole.tocsr()
    builds = []
    for workers, block in ((1, hamiltonian._BLOCK), (2, 1)):
        monkeypatch.setattr(hamiltonian, "_workers", lambda: workers)
        monkeypatch.setattr(hamiltonian, "_BLOCK", block)
        builds.append(hamiltonian._kron_sum(t_up, t_dn, diag))
    for m in builds:
        for name in ("data", "indices", "indptr"):
            got, want = getattr(m, name), getattr(whole, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def _fork_product(h, x, conn):
    conn.send((h @ x).tobytes())
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
def test_forked_child_computes_products_after_threaded_one(monkeypatch):
    # the child inherits the parent's executor without its threads; its own
    # product must start a new pool instead of waiting on the old one
    monkeypatch.setattr(hamiltonian, "_workers", lambda: 2)
    monkeypatch.setattr(hamiltonian, "_BLOCK", 5)
    h = build_model(build_chain(6), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    x = np.linspace(-1.0, 1.0, h.dim)
    want = (h @ x).tobytes()
    assert hamiltonian._pool is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_fork_product, args=(h, x, send))
    child.start()
    try:
        assert receive.poll(30), "the forked child's product hung"
        assert receive.recv() == want
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join(5)
    assert not child.is_alive() and child.exitcode == 0


def test_spin_operator_product_is_the_csr_product(rng):
    h = build_model(build_chain(6), ModelSpec(kind="heisenberg", J=1.0), Sector(None, 0))
    x = rng.standard_normal(h.dim)
    assert h.kron is None
    assert np.array_equal(h @ x, h.matrix @ x)


@pytest.mark.parametrize("site_spin", [0.5, 1.0])
@pytest.mark.parametrize("geometry", [build_chain(4), ring(4)], ids=["chain4", "ring4"])
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
