import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import brute_permute_sites, masks_of, orbitals_of, sort_parity
from edkit.basis import FermionState, Sector, SpinState, enumerate_sector
from edkit.hamiltonian import ModelSpec, build_model
from edkit.lattice import build_chain, build_icosahedron
from edkit.solver import dense_spectrum, sharpen_spin
from edkit.symmetry import (
    MixedSpinError,
    SymmetryError,
    SymmetryLabel,
    c2_operator,
    classify,
    eh_operator,
    format_label,
    parse_label,
    projector,
    raising_operator,
    spin_flip_operator,
    spin_squared,
    total_spin,
)


def test_label_parse_format_roundtrip():
    for text in ("1_Ag+", "1_Bu-", "3_Bu+", "3_Ag-", "5_Ag+"):
        assert format_label(parse_label(text)) == text
    lab = parse_label("3_Bu+")
    assert lab.c2_parity == -1 and lab.eh_parity == 1 and lab.total_spin == 1.0
    assert lab.twice_ms_highest == 2
    with pytest.raises(SymmetryError):
        parse_label("Bu+")
    with pytest.raises(SymmetryError):
        parse_label("1_Xu+")
    with pytest.raises(SymmetryError):
        SymmetryLabel(c2_parity=2, eh_parity=1, total_spin=0.0)


@pytest.mark.parametrize("sector", [Sector(4, 0), Sector(4, 2), Sector(2, 0)])
def test_c2_matches_site_permutation_oracle(sector):
    # modulo the covalent-reference phase, the operator is the brute-force
    # site permutation of every creation operator
    g = build_chain(4)
    b = enumerate_sector(g, "hubbard", sector)
    op = c2_operator(b, g).tocsc()  # column i: sign[i] in row perm[i]
    assert np.array_equal(op.indptr, np.arange(b.dim + 1))
    flips = set()
    for i in range(b.dim):
        st = b.state_at(i)
        nu, nd, sign = brute_permute_sites(st.up_mask, st.dn_mask, 4, g.c2_perm)
        j = b.index_of(FermionState(nu, nd))
        assert op.indices[i] == j
        flips.add(int(op.data[i]) * sign)
    assert len(flips) == 1  # at most a global phase difference


def _is_identity(m):
    """True if the sparse matrix equals the identity entry for entry."""
    return m.shape[0] == m.shape[1] and (m != sp.identity(m.shape[0], format="csr")).nnz == 0


def test_c2_involution():
    g = build_chain(6)
    b = enumerate_sector(g, "hubbard", Sector(6, 0))
    op = c2_operator(b, g)
    assert sp.isspmatrix_csr(op) and op.shape == (b.dim, b.dim)
    assert _is_identity(op @ op)


def test_c2_symmetric_two_site_state():
    g = build_chain(2)
    b = enumerate_sector(g, "hubbard", Sector(2, 0))
    v = np.zeros(b.dim)
    v[b.index_of(FermionState(0b01, 0b10))] = 1 / np.sqrt(2)
    v[b.index_of(FermionState(0b10, 0b01))] = 1 / np.sqrt(2)
    assert np.abs(c2_operator(b, g) @ v - v).max() < 1e-14


def test_huckel_four_site_ground_state_even():
    g = build_chain(4)
    h = build_model(g, ModelSpec(kind="huckel", t=-1.0), Sector(4, 0))
    eig = dense_spectrum(h)
    v = eig.vectors[:, 0]
    c2v = c2_operator(h.basis, g) @ v
    assert float(v @ c2v) == pytest.approx(1.0, abs=1e-10)


def test_c2_requires_declared_symmetry():
    import edkit.lattice as lat

    g = lat.Geometry(name="bare", coords=np.array([[0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]),
                     bonds=((1, 2), (2, 3)))
    b = enumerate_sector(g, "hubbard", Sector(3, 1))
    with pytest.raises(SymmetryError):
        c2_operator(b, g)


def test_eh_involution_and_unit_amplitude():
    g = build_chain(6)
    b = enumerate_sector(g, "hubbard", Sector(6, 0))
    op = eh_operator(b, g)
    assert sp.isspmatrix_csr(op) and op.shape == (b.dim, b.dim)
    assert _is_identity(op @ op)
    op = op.tocsc()  # column i: sign[i] in row perm[i]
    # covalent configurations map to covalent configurations with unit weight
    for i in range(b.dim):
        st = b.state_at(i)
        if st.up_mask & st.dn_mask == 0 and st.up_mask | st.dn_mask == 0b111111:
            j = int(op.indices[i])
            tgt = b.state_at(j)
            assert tgt.up_mask & tgt.dn_mask == 0
            assert abs(int(op.data[i])) == 1


def test_eh_neel_reference_maps_plus():
    for n in (2, 4, 6, 8):
        g = build_chain(n)
        for tm in (0, 2):
            b = enumerate_sector(g, "hubbard", Sector(n, tm))
            op = eh_operator(b, g).tocsc()
            from edkit.symmetry import _neel_reference

            up, dn = _neel_reference(n, b.sector.n_up)
            i = b.index_of(FermionState(up, dn))
            assert op.indices[i] == i
            assert op.data[i] == 1


def test_eh_requires_half_filling_and_alternancy():
    g = build_chain(4)
    b = enumerate_sector(g, "hubbard", Sector(2, 0))
    with pytest.raises(SymmetryError):
        eh_operator(b, g)
    ico = build_icosahedron()
    bi = enumerate_sector(ico, "ppp", Sector(12, 0))
    with pytest.raises(SymmetryError):
        eh_operator(bi, ico)


def _commutator_norm(a, b):
    """Frobenius norm of AB - BA, an upper bound on its operator norm."""
    return spla.norm(a @ b - b @ a)


def test_eh_commutes_with_half_filled_models():
    g = build_chain(6)
    for spec in (ModelSpec(kind="hubbard", t=-1.0, U=4.0), ModelSpec(kind="ppp", t=-2.4, U=11.26)):
        h = build_model(g, spec, Sector(6, 0))
        op = eh_operator(h.basis, g)
        scale = np.abs(h.matrix).max()
        assert _commutator_norm(h.matrix, op) <= 1e-10 * scale


def test_projector_algebra(rng):
    g = build_chain(4)
    b = enumerate_sector(g, "hubbard", Sector(4, 0))
    v = rng.standard_normal(b.dim)
    parts = {}
    for a in (1, -1):
        for e in (1, -1):
            parts[(a, e)] = projector(b, g, a, e).apply(v)
    # resolution of identity
    assert np.abs(sum(parts.values()) - v).max() < 1e-13
    for key, pv in parts.items():
        again = projector(b, g, *key).apply(pv)
        assert np.abs(again - pv).max() < 1e-13  # idempotent
        for other, qv in parts.items():
            if other != key:
                assert abs(float(pv @ qv)) < 1e-13  # mutually orthogonal


def _projector_matrix(proj):
    """P as a sparse matrix: the projector applied to the identity."""
    return proj.apply(sp.identity(proj.dim, format="csr"))


def test_projector_commutes_with_models():
    g = build_chain(6)
    specs = [
        ModelSpec(kind="huckel", t=-1.0),
        ModelSpec(kind="hubbard", t=-1.0, U=4.0),
        ModelSpec(kind="ppp", t=-2.4, U=11.26),
    ]
    for spec in specs:
        h = build_model(g, spec, Sector(6, 0))
        pm = _projector_matrix(projector(h.basis, g, 1, 1))
        scale = max(1.0, float(np.abs(h.matrix).max()))
        assert _commutator_norm(h.matrix, pm) <= 1e-10 * scale
    hs = build_model(g, ModelSpec(kind="heisenberg"), Sector(None, 0))
    pm = _projector_matrix(projector(hs.basis, g, -1, None))
    assert _commutator_norm(hs.matrix, pm) <= 1e-10


def test_projector_block_apply_matches_columns(rng):
    # the drift check of lowest_in_label projects a whole (dim, k) block
    g = build_chain(6)
    for sector, eh in ((Sector(6, 0), 1), (Sector(6, 2), -1)):
        b = enumerate_sector(g, "hubbard", sector)
        for c2 in (1, -1):
            proj = projector(b, g, c2, eh)
            block = rng.standard_normal((b.dim, 5))
            columns = np.column_stack([proj.apply(block[:, j]) for j in range(5)])
            assert np.array_equal(proj.apply(block), columns)


def _orbit_basis_loop(proj, tol=1e-12):
    """Per-state reference: visit states in ascending order and normalize
    the projection of each one not yet seen in an earlier orbit."""
    group = [(np.arange(proj.dim), np.ones(proj.dim))]
    for op, parity in proj.generators:
        op = op.tocsc()  # column i: sign[i] in row perm[i]
        group += [(op.indices[p], s * parity * op.data[p]) for p, s in group]
    visited = np.zeros(proj.dim, dtype=bool)
    columns = []
    for i in range(proj.dim):
        if visited[i]:
            continue
        comps = {}
        for p, s in group:
            j = int(p[i])
            comps[j] = comps.get(j, 0.0) + float(s[i]) / len(group)
        visited[list(comps)] = True
        norm2 = sum(c * c for c in comps.values())
        if norm2 > tol:
            columns.append({j: c / np.sqrt(norm2) for j, c in comps.items()})
    rows = [j for col in columns for j in col]
    cols = [n for n, col in enumerate(columns) for _ in col]
    vals = [c for col in columns for c in col.values()]
    return sp.csr_matrix((vals, (rows, cols)), shape=(proj.dim, len(columns)))


def test_orbit_basis_reconstructs_projector(rng):
    chain4, chain6, ico = build_chain(4), build_chain(6), build_icosahedron()
    cases = [
        # half-filled fermion sector with both C2 and eh
        (chain4, "hubbard", Sector(4, 0), 1, -1, None),
        (chain6, "hubbard", Sector(6, 0), 1, 1, None),
        # polarized 2M_S = 2 sector
        (chain6, "hubbard", Sector(6, 2), -1, 1, None),
        # spin sector, C2 only
        (ico, "heisenberg", Sector(None, 0), 1, None, None),
        # eh only
        (chain6, "hubbard", Sector(6, 0), None, 1, None),
        # three generators: C2, eh and spin inversion, flip parity +1 at
        # spin 0 and -1 at spin 1
        (chain4, "hubbard", Sector(4, 0), -1, 1, 0),
        (chain6, "hubbard", Sector(6, 0), 1, 1, 0),
        (chain6, "hubbard", Sector(6, 0), -1, -1, 1),
        (chain6, "hubbard", Sector(4, 0), 1, None, 1),
        (ico, "heisenberg", Sector(None, 0), -1, None, 0),
        (chain6, "heisenberg", Sector(None, 0), None, None, 1),
    ]
    for g, kind, sector, c2, eh, spin in cases:
        b = enumerate_sector(g, kind, sector)
        proj = projector(b, g, c2, eh, spin)
        q = proj.orbit_basis()
        assert 0 < q.shape[1] < b.dim
        qtq = (q.T @ q).toarray()
        assert np.abs(qtq - np.eye(q.shape[1])).max() < 1e-12
        pm = np.column_stack([proj.apply(e) for e in np.eye(b.dim)])
        assert np.abs((q @ q.T).toarray() - pm).max() < 1e-12
        # columns are ordered by their smallest row index
        qc = q.tocsc()
        first_rows = qc.indices[qc.indptr[:-1]]
        assert np.all(np.diff(first_rows) > 0)
        # the vectorized construction equals the per-state loop exactly
        ref = _orbit_basis_loop(proj)
        assert ref.shape == q.shape and (ref != q).nnz == 0
        assert np.array_equal(ref.indptr, q.indptr) and np.array_equal(ref.indices, q.indices)


def test_projector_adds_spin_inversion_only_for_integer_spin_at_zero_ms():
    # the one rule of the spin-flip generator: an integer S on a 2M_S = 0
    # sector appends spin inversion of character (-1)^S after C2 and eh;
    # no spin, a half-integer one, or 2M_S != 0 gives the (C2, eh) block
    g = build_chain(4)
    cases = [("hubbard", 0.5, Sector(ne, tm)) for ne in range(0, 9) for tm in range(-ne, ne + 1, 2)
             if abs(tm) <= 8 - ne]
    cases += [("heisenberg", s, Sector(None, tm)) for s in (0.5, 1.0)
              for tm in range(-round(8 * s), round(8 * s) + 1, 2)]

    def same(gens, ref):
        return len(gens) == len(ref) and all(
            (a != b).nnz == 0 and x == y for (a, x), (b, y) in zip(gens, ref)
        )

    flips = 0
    for kind, site_spin, sector in cases:
        b = enumerate_sector(g, kind, sector, site_spin)
        eh = 1 if sector.n_electrons == 4 else None
        ref = projector(b, g, 1, eh).generators
        for spin in (None, 0.5, 1.5):
            assert same(projector(b, g, 1, eh, spin).generators, ref)
        for spin, chi in ((0, 1), (1.0, -1), (2, 1), (3.0, -1)):
            gens = projector(b, g, 1, eh, spin).generators
            if sector.twice_ms:
                assert same(gens, ref)
            else:
                assert same(gens[:-1], ref) and gens[-1][1] == chi
                assert (gens[-1][0] != spin_flip_operator(b)).nnz == 0
                flips += 1
    assert flips == 4 * (5 + 2)  # five 2M_S = 0 fermion sectors and two spin ones


def test_orbit_basis_holds_no_group_by_dim_stack():
    # the 10-site (C2+, eh+, flip+) block: eight group elements, visited one
    # at a time; a (|G|, dim) stack of permutations and signs alone would
    # take 128 bytes per state
    import tracemalloc

    g = build_chain(10)
    b = enumerate_sector(g, "hubbard", Sector(10, 0))
    proj = projector(b, g, 1, 1, 0)
    tracemalloc.start()
    try:
        q = proj.orbit_basis()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.shape == (b.dim, 8192)
    assert peak <= 128 * b.dim


@pytest.mark.parametrize("n", range(2, 9))
def test_spin_flip_commutes_with_models(n):
    # exactly, on every 2M_S = 0 sector: F H F = H entry for entry, except
    # that the PPP diagonal sums its Coulomb terms channel by channel, so
    # (up, dn) and (dn, up) may differ by the rounding of those n^2 terms
    g = build_chain(n, 1.397)
    fermions = [ModelSpec(kind="huckel", t=-1.0), ModelSpec(kind="hubbard", t=-1.0, U=4.0),
                ModelSpec(kind="ppp", t=-2.4, U=11.26)]
    cases = [(spec, Sector(ne, 0)) for spec in fermions for ne in range(0, 2 * n + 1, 2)] + [
        (ModelSpec(kind="heisenberg", site_spin=s), Sector(None, 0))
        for s in (0.5, 1.0) if n * round(2 * s) % 2 == 0
    ]
    for spec, sector in cases:
        h = build_model(g, spec, sector)
        flip = spin_flip_operator(h.basis)
        assert abs(abs(flip) - abs(flip.T)).max() == 0 and (flip @ flip != sp.identity(h.basis.dim)).nnz == 0
        diff = flip @ h.matrix @ flip - h.matrix
        diagonal = abs(diff.diagonal())
        bound = n * n * np.finfo(float).eps * abs(h.matrix).max() if spec.kind == "ppp" else 0.0
        assert np.all(diagonal <= bound), (spec.kind, sector)
        assert (diff - sp.diags(diff.diagonal())).count_nonzero() == 0, (spec.kind, sector)


@pytest.mark.parametrize(
    "n, spec, sector",
    [
        (4, ModelSpec(kind="heisenberg"), Sector(None, 0)),
        (6, ModelSpec(kind="heisenberg"), Sector(None, 0)),
        (10, ModelSpec(kind="heisenberg"), Sector(None, 0)),
        (4, ModelSpec(kind="heisenberg", site_spin=1.0), Sector(None, 0)),
        (5, ModelSpec(kind="heisenberg", site_spin=1.0), Sector(None, 0)),
        (6, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0)),
        (6, ModelSpec(kind="ppp", t=-2.4, U=11.26), Sector(6, 0)),
        (5, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(4, 0)),
    ],
    ids=["heis4", "heis6", "heis10", "spin1-4", "spin1-5", "hubbard6", "ppp6", "hubbard5-N4"],
)
def test_spin_flip_parity_is_minus_one_to_the_s(n, spec, sector):
    # the sector sign makes singlets even: every sharpened eigenstate has
    # flip parity (-1)^S (spin chains with n s odd take the sign -1)
    h = build_model(build_chain(n, 1.397), spec, sector)
    eig = dense_spectrum(h)
    eig = sharpen_spin(eig, raising_operator(h.basis) @ eig.vectors, h.basis)
    flip = spin_flip_operator(h.basis)
    parity = np.einsum("ij,ij->j", eig.vectors, flip @ eig.vectors)
    spins = [total_spin(eig.vectors[:, i], h.basis) for i in range(eig.k)]
    assert np.abs(parity - [(-1.0) ** round(s) for s in spins]).max() < 1e-9


def test_spin_flip_needs_zero_magnetization():
    b = enumerate_sector(build_chain(4), "hubbard", Sector(4, 2))
    with pytest.raises(SymmetryError, match="2M_S = 0"):
        spin_flip_operator(b)


def test_total_spin_polarized_and_singlet():
    g = build_chain(4)
    b = enumerate_sector(g, "hubbard", Sector(4, 4))
    assert total_spin(np.array([1.0]), b) == 2.0
    g2 = build_chain(2)
    b2 = enumerate_sector(g2, "heisenberg", Sector(None, 0))
    h = build_model(g2, ModelSpec(kind="heisenberg"), Sector(None, 0))
    vals, vecs = np.linalg.eigh(h.matrix.toarray())
    assert total_spin(vecs[:, 0], b2) == 0.0
    assert total_spin(vecs[:, 1], b2) == 1.0


def test_splus_annihilates_highest_weight():
    # the lowest state of the 2M_S = 2 sector has S = M_S
    g = build_chain(4)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(4, 2))
    vals, vecs = np.linalg.eigh(h.matrix.toarray())
    v = vecs[:, 0]
    assert total_spin(v, h.basis) == 1.0
    assert np.linalg.norm(raising_operator(h.basis) @ v) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_raising_operator_matches_operator_strings(n):
    # S+ = sum_i c+_{i,up} c_{i,dn} applied to every canonical operator string
    g = build_chain(n)
    for n_up in range(n + 1):
        for n_dn in range(n + 1):
            sector = Sector(n_up + n_dn, n_up - n_dn)
            b = enumerate_sector(g, "hubbard", sector)
            terms = []
            for col, st in enumerate(b.states()):
                orbs = orbitals_of(st.up_mask, st.dn_mask, n)
                for site in range(n):
                    if n + site not in orbs or site in orbs:
                        continue
                    k = orbs.index(n + site)  # c_{i,dn} passes the k operators before it
                    out, sign = sort_parity((site,) + orbs[:k] + orbs[k + 1:])
                    terms.append((masks_of(out, n), col, (-1) ** k * sign))
            splus = raising_operator(b)
            if n_dn == 0 or n_up == n:  # fully polarized: no raised sector
                assert terms == [] and splus.shape == (0, b.dim)
                continue
            raised = enumerate_sector(g, "hubbard", Sector(sector.n_electrons, sector.twice_ms + 2))
            want = np.zeros((raised.dim, b.dim))
            for masks, col, sign in terms:
                want[raised.index_of(FermionState(*masks)), col] += sign
            assert splus.shape == want.shape
            assert np.array_equal(splus.toarray(), want)


@pytest.mark.parametrize("site_spin", [0.5, 1.0])
def test_raising_operator_matches_digit_ladder(site_spin):
    # S+_i raises one digit d < 2s with sqrt((2s - d)(d + 1))
    twice = round(2 * site_spin)
    for n in (2, 3, 4):
        g = build_chain(n)
        for tm in range(-n * twice, n * twice + 1, 2):
            b = enumerate_sector(g, "heisenberg", Sector(None, tm), site_spin)
            splus = raising_operator(b)
            if tm == n * twice:
                assert splus.shape == (0, b.dim)
                continue
            raised = enumerate_sector(g, "heisenberg", Sector(None, tm + 2), site_spin)
            want = np.zeros((raised.dim, b.dim))
            for col, st in enumerate(b.states()):
                for site, d in enumerate(st.digits):
                    if d < twice:
                        up = st.digits[:site] + (d + 1,) + st.digits[site + 1:]
                        want[raised.index_of(SpinState(up)), col] += np.sqrt((twice - d) * (d + 1))
            assert splus.shape == want.shape
            assert np.array_equal(splus.toarray(), want)


def test_spin_ladder_consistency():
    # |S+ v|^2 = S(S+1) - M(M+1) for spin eigenstates
    g = build_chain(4)
    h = build_model(g, ModelSpec(kind="heisenberg", site_spin=1.0), Sector(None, 2))
    vals, vecs = np.linalg.eigh(h.matrix.toarray())
    block = spin_squared(vecs, h.basis)
    for k in range(h.dim):
        s2 = spin_squared(vecs[:, k], h.basis)
        assert block[k] == pytest.approx(s2, abs=1e-12)
        s = total_spin(vecs[:, k], h.basis)
        assert s2 == pytest.approx(s * (s + 1), abs=1e-8)
        assert s >= 1.0


def test_mixed_spin_flagged():
    g = build_chain(2)
    b = enumerate_sector(g, "heisenberg", Sector(None, 0))
    h = build_model(g, ModelSpec(kind="heisenberg"), Sector(None, 0))
    vals, vecs = np.linalg.eigh(h.matrix.toarray())
    mixed = (vecs[:, 0] + vecs[:, 1]) / np.sqrt(2)
    with pytest.raises(MixedSpinError):
        total_spin(mixed, b)


def test_icosahedron_c2_commutes_with_ppp():
    # highly polarized sector keeps the dimension small (144)
    ico = build_icosahedron()
    h = build_model(ico, ModelSpec(kind="ppp", t=-2.4, U=11.26), Sector(12, 10))
    assert h.dim == 144
    op = c2_operator(h.basis, ico)
    scale = np.abs(h.matrix).max()
    assert _commutator_norm(h.matrix, op) <= 1e-10 * scale
    assert _is_identity(op @ op)


def test_classify_six_site_ppp_ground_state():
    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="ppp", t=-2.4, U=11.26), Sector(6, 0))
    eig = dense_spectrum(h)
    label = classify(eig.vectors[:, 0], h.basis, g)
    assert format_label(label) == "1_Ag+"


@pytest.mark.parametrize("twice_ms", range(-4, 5))
def test_spin_of_boundaries(twice_ms):
    from edkit.symmetry import SPIN_TOL as tol
    from edkit.symmetry import _spin_of

    for twice_s in range(11):
        s = twice_s / 2
        s2 = s * (s + 1)
        if (twice_s - twice_ms) % 2 or twice_s < abs(twice_ms):
            with pytest.raises(MixedSpinError):
                _spin_of(s2, twice_ms)
            continue
        for d in (0.9 * tol, -0.9 * tol):
            assert _spin_of(s2 + d, twice_ms) == s
        for d in (1.1 * tol, -1.1 * tol):
            with pytest.raises(MixedSpinError):
                _spin_of(s2 + d, twice_ms)
