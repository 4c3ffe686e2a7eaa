import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_block_reorder_sign, brute_fock_rdm, per_state_factors
from edkit import hamiltonian
from edkit.analysis import entropy_profile, subspace_spectrum
from edkit.basis import Sector, bipartite_factorize, enumerate_sector
from edkit.entanglement import (
    SVD_STACK_MAX,
    DegenerateFermiLevelError,
    EntanglementError,
    _manifold_entropies,
    _weight_rows,
    decade_histogram,
    degenerate_average,
    entropy_both_sides,
    entropy_bits,
    free_fermion_oracle,
    schmidt_spectrum,
)
from edkit.hamiltonian import ModelSpec, build_model
from edkit.lattice import Bipartition, Geometry, build_chain, build_icosahedron, half_cut
from edkit.solver import DegenerateManifold, EigenSet, dense_spectrum, group_degenerate, lanczos_lowest


def _ground(geometry, spec, sector):
    h = build_model(geometry, spec, sector)
    eig = dense_spectrum(h) if h.dim <= 5000 else lanczos_lowest(h, k=1, tol=1e-11)
    return eig.vectors[:, 0], h.basis


def test_heisenberg_singlet_maximally_entangled():
    g = build_chain(2)
    v, basis = _ground(g, ModelSpec(kind="heisenberg"), Sector(None, 0))
    spec = schmidt_spectrum(v, basis, half_cut(g, 1))
    assert np.allclose(np.sort(spec.weights), [0.5, 0.5], atol=1e-12)
    assert spec.total_entropy == pytest.approx(1.0, abs=1e-12)


def test_product_state_zero_entropy():
    g = build_chain(2)
    b = enumerate_sector(g, "hubbard", Sector(2, 2))
    v = np.array([1.0])
    spec = schmidt_spectrum(v, b, half_cut(g, 1))
    assert spec.total_entropy == pytest.approx(0.0, abs=1e-14)
    rows = schmidt_spectrum(v, b, half_cut(g, 1)).sector_entropies()
    assert len(rows) == 1 and rows[0][1] == pytest.approx(0.0, abs=1e-14)


def test_free_orbital_two_site():
    g = build_chain(2)
    v, basis = _ground(g, ModelSpec(kind="hubbard", t=-1.0, U=0.0), Sector(2, 0))
    spec = schmidt_spectrum(v, basis, half_cut(g, 1))
    assert np.allclose(np.sort(spec.weights), [0.25] * 4, atol=1e-12)
    assert spec.total_entropy == pytest.approx(2.0, abs=1e-12)


def test_unnormalized_rejected():
    g = build_chain(2)
    b = enumerate_sector(g, "hubbard", Sector(2, 2))
    with pytest.raises(EntanglementError, match="normalized"):
        schmidt_spectrum(np.array([2.0]), b, half_cut(g, 1))


def test_foreign_index_rejected():
    # two 6-site sectors of equal dimension 225: the index of one must not
    # be read as the factorization of the other
    g = build_chain(6)
    cut = half_cut(g, 3)
    v, basis = _ground(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(4, 0))
    foreign = bipartite_factorize(enumerate_sector(g, "hubbard", Sector(6, 2)), cut)
    assert foreign.blocks and basis.dim == 225
    with pytest.raises(EntanglementError, match="different basis"):
        schmidt_spectrum(v, basis, foreign)
    own = bipartite_factorize(basis, cut)
    assert schmidt_spectrum(v, basis, own).total_entropy == pytest.approx(1.405, abs=1e-3)


@pytest.mark.parametrize("length", [35, 40])
def test_vector_length_checked(length):
    g = build_chain(4)
    b = enumerate_sector(g, "hubbard", Sector(4, 0))
    v = np.full(length, 1.0 / np.sqrt(length))
    with pytest.raises(EntanglementError, match=f"length {length} .* dimension 36"):
        schmidt_spectrum(v, b, half_cut(g, 2))


@st.composite
def _factorization_cases(draw):
    """Every sector of 2-6-site fermion and spin-1/2 or spin-1 bases, cut
    between random site subsets, with a random vector seed."""
    n = draw(st.integers(2, 6))
    kind, site_spin = draw(st.sampled_from([("hubbard", 0.5), ("heisenberg", 0.5), ("heisenberg", 1.0)]))
    if kind == "hubbard":
        n_up, n_dn = draw(st.integers(0, n)), draw(st.integers(0, n))
        sector = Sector(n_up + n_dn, n_up - n_dn)
    else:
        twice = round(2 * site_spin)
        sector = Sector(None, 2 * draw(st.integers(0, n * twice)) - n * twice)
    sites = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(1, n - 1))
    cut = Bipartition(tuple(sorted(sites[:k])), tuple(sorted(sites[k:])))
    return enumerate_sector(build_chain(n), kind, sector, site_spin), cut, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=_factorization_cases())
def test_factorization_matches_operator_string_oracles(case):
    basis, cut, seed = case
    index = bipartite_factorize(basis, cut)
    signs = per_state_factors(basis, index)[3]
    for i, state in enumerate(basis.states()):
        if basis.kind == "fermion":
            expected = brute_block_reorder_sign(state.up_mask, state.dn_mask, basis.n_sites, cut.left, cut.right)
        else:
            expected = 1
        assert signs[i] == expected, f"state {state}"
    v = np.random.default_rng(seed).standard_normal(basis.dim)
    v /= np.linalg.norm(v)
    weights = schmidt_spectrum(v, basis, index).weights
    oracle = np.linalg.eigvalsh(brute_fock_rdm(v, basis, cut.left, cut.right))[::-1]
    assert np.abs(weights - oracle[: len(weights)]).max() <= 1e-12
    assert np.abs(oracle[len(weights):]).max(initial=0.0) <= 1e-12


def test_both_sides_equal_and_same_nonzero_weights():
    g = build_chain(6)
    v, basis = _ground(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    for left in (2, 3, 4):
        cut = half_cut(g, left)
        sl, sr = entropy_both_sides(v, basis, cut)
        assert abs(sl - sr) < 1e-10
        wl = schmidt_spectrum(v, basis, cut).weights
        wr = schmidt_spectrum(v, basis, Bipartition(cut.right, cut.left)).weights
        m = min(len(wl), len(wr))
        assert np.abs(wl[:m] - wr[:m]).max() < 1e-10


def test_sector_table_sums_and_order():
    g = build_chain(6)
    v, basis = _ground(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    spec = schmidt_spectrum(v, basis, half_cut(g, 3))
    rows = spec.sector_entropies()
    values = [val for _, val in rows]
    assert values == sorted(values, reverse=True)
    assert sum(values) == pytest.approx(spec.total_entropy, abs=1e-10)
    assert sum(s.weights.sum() for s in spec.sectors) == pytest.approx(1.0, abs=1e-10)


def test_sector_conjugation_symmetry():
    # half-filled eigenstates: electron-hole and spin-inversion conjugate
    # sectors carry equal partial entropies
    g = build_chain(6)
    v, basis = _ground(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    rows = dict(schmidt_spectrum(v, basis, half_cut(g, 3)).sector_entropies())
    for (tm, n), val in rows.items():
        assert rows[(-tm, n)] == pytest.approx(val, abs=1e-8)
        assert rows[(tm, 6 - n)] == pytest.approx(val, abs=1e-8)


def test_decade_histogram_examples():
    assert decade_histogram(np.array([0.5, 0.5])).tolist()[:3] == [2, 0, 0]
    h = decade_histogram(np.array([0.9, 0.05, 0.05]))
    assert h[0] == 1 and h[1] == 2 and h[2:].sum() == 0
    # exact powers of ten fall in the lower bin; w = 1 is clamped to bin 0
    h = decade_histogram(np.array([1.0, 0.1, 0.01]))
    assert h[0] == 2 and h[1] == 1
    # numerical zeros are dropped
    assert decade_histogram(np.array([1e-17])).sum() == 0
    assert decade_histogram(np.array([0.5, 1e-16, 1e-17])).sum() == 2


def test_global_phase_invariance():
    g = build_chain(4)
    v, basis = _ground(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(4, 0))
    cut = half_cut(g, 2)
    s1 = schmidt_spectrum(v, basis, cut).total_entropy
    s2 = schmidt_spectrum(-v, basis, cut).total_entropy
    assert abs(s1 - s2) < 1e-14


def test_entropy_bound():
    g = build_chain(4)
    v, basis = _ground(g, ModelSpec(kind="hubbard", t=-1.0, U=0.0), Sector(4, 0))
    for left in (1, 2, 3):
        spec = schmidt_spectrum(v, basis, half_cut(g, left))
        assert spec.total_entropy <= spec.entropy_bound + 1e-12
        assert spec.entropy_bound == pytest.approx(
            np.log2(min(4**left, 4 ** (4 - left))), abs=1e-12
        )


def test_degenerate_average_single_state_matches_schmidt():
    g = build_chain(4)
    v, basis = _ground(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(4, 0))
    man = DegenerateManifold(0.0, v[:, None])
    cut = half_cut(g, 2)
    s_av = degenerate_average(man, basis, cut)
    s_direct = schmidt_spectrum(v, basis, cut)
    assert s_av.total_entropy == pytest.approx(s_direct.total_entropy, abs=1e-12)
    assert np.allclose(np.sort(s_av.weights), np.sort(s_direct.weights), atol=1e-10)


def test_degenerate_average_orthogonal_products():
    # two product states with orthogonal left factors average to a rank-2
    # maximally mixed RDM
    g = build_chain(2)
    b = enumerate_sector(g, "heisenberg", Sector(None, 0))
    up_dn = np.zeros(2)
    dn_up = np.zeros(2)
    from edkit.basis import SpinState

    up_dn[b.index_of(SpinState((1, 0)))] = 1.0
    dn_up[b.index_of(SpinState((0, 1)))] = 1.0
    man = DegenerateManifold(0.0, np.column_stack([up_dn, dn_up]))
    spec = degenerate_average(man, b, half_cut(g, 1))
    assert np.allclose(np.sort(spec.weights), [0.5, 0.5], atol=1e-12)
    assert spec.total_entropy == pytest.approx(1.0, abs=1e-12)


def test_degenerate_average_rotation_invariance(rng):
    # two decoupled dimers: the (triplet x singlet) / (singlet x triplet)
    # pair is exactly degenerate and its members have different entropies
    # under re-mixing, but the averaged RDM does not care
    coords = np.zeros((4, 3))
    coords[:, 0] = [0.0, 1.0, 3.0, 4.0]
    g = Geometry(name="two-dimers", coords=coords, bonds=((1, 2), (3, 4)))
    h = build_model(g, ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5), Sector(None, 0))
    eig = dense_spectrum(h)
    manifolds = [m for m in group_degenerate(eig) if m.multiplicity >= 2]
    assert manifolds
    man = manifolds[0]
    cut = half_cut(g, 2)
    s_ref = degenerate_average(man, h.basis, cut).total_entropy
    g_ = man.multiplicity
    for _ in range(5):
        q, _r = np.linalg.qr(rng.standard_normal((g_, g_)))
        rotated = DegenerateManifold(man.eigenvalue, man.vectors @ q)
        s_rot = degenerate_average(rotated, h.basis, cut).total_entropy
        assert abs(s_rot - s_ref) < 1e-10
    with pytest.raises(EntanglementError):
        degenerate_average(DegenerateManifold(0.0, np.zeros((h.dim, 0))), h.basis, cut)


def test_degenerate_average_matches_explicit_rdm_oracle():
    # the acceptance-6 manifold: the first of multiplicity >= 3 among the 12
    # lowest icosahedron Heisenberg states
    ico = build_icosahedron()
    h = build_model(ico, ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5), Sector(None, 0))
    man = next(m for m in group_degenerate(lanczos_lowest(h, k=12, tol=1e-10, seed=1))
               if m.multiplicity >= 3)
    index = bipartite_factorize(h.basis, half_cut(ico, 6))
    spec = degenerate_average(man, h.basis, index)
    got = {(s.twice_ms_left, s.n_left): s.weights[s.weights >= 1e-12] for s in spec.sectors}
    oracle_weights = []
    state_block, row, col, sign = per_state_factors(h.basis, index)
    for k, block in enumerate(index.blocks):
        sel = state_block == k
        rho = np.zeros((block.left_dim, block.left_dim))
        for i in range(man.multiplicity):
            c = np.zeros((block.left_dim, block.right_dim))
            c[row[sel], col[sel]] = sign[sel] * man.vectors[sel, i]
            rho += c @ c.T
        w = np.linalg.eigvalsh(rho / man.multiplicity)[::-1]
        w = w[w >= 1e-12]
        oracle_weights.append(w)
        key = (block.twice_ms_left, block.n_left)
        if w.size or key in got:
            assert got[key].shape == w.shape
            assert np.abs(got[key] - w).max() <= 1e-12
    oracle = np.concatenate(oracle_weights)
    assert spec.total_entropy == pytest.approx(entropy_bits(oracle), abs=1e-12)


def test_free_fermion_two_site_consistency():
    g = build_chain(2)
    s = free_fermion_oracle(g, -1.0, half_cut(g, 1), Sector(2, 0))
    assert s == pytest.approx(2.0, abs=1e-12)


def test_free_fermion_matches_many_body():
    g = build_chain(4)
    v, basis = _ground(g, ModelSpec(kind="hubbard", t=-1.0, U=0.0), Sector(4, 0))
    s_many = schmidt_spectrum(v, basis, half_cut(g, 2)).total_entropy
    s_free = free_fermion_oracle(g, -1.0, half_cut(g, 2), Sector(4, 0))
    assert abs(s_many - s_free) < 1e-10


def test_free_fermion_whole_block_zero():
    g = build_chain(4)
    s = free_fermion_oracle(g, -1.0, (1, 2, 3, 4), Sector(4, 0))
    assert abs(s) < 1e-12


def test_free_fermion_degenerate_fermi_level():
    coords = np.zeros((4, 3))
    coords[:, 0] = [0.0, 1.0, 3.0, 4.0]
    g = Geometry(name="two-dimers", coords=coords, bonds=((1, 2), (3, 4)))
    with pytest.raises(DegenerateFermiLevelError):
        free_fermion_oracle(g, -1.0, half_cut(g, 2), Sector(2, 0))


def test_entropy_bits_handles_zeros():
    assert entropy_bits(np.array([1.0, 0.0])) == 0.0
    assert entropy_bits(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-14)


# column ranges of sizes g = 1, 2, 3, 1, 3, 2 and 52, averaged in one batched
# call; the 52 columns put the widest cut blocks above SVD_STACK_MAX, so the
# stacked and the per-matrix SVD both run
MIXED_RANGES = [(0, 1), (1, 3), (3, 6), (6, 7), (7, 10), (10, 12), (12, 64)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["hubbard6 sector", "icosahedron C2+ S=0 block"])
def test_batched_manifolds_match_fock_rdm_oracle(case, workers, monkeypatch):
    if case.startswith("hubbard6"):
        g = build_chain(6)
        h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
        vectors, basis, cut = dense_spectrum(h).vectors, h.basis, half_cut(g, 3)
    else:
        ico = build_icosahedron()
        spec = ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5)
        eig, basis = subspace_spectrum(ico, spec, 0, 1, None, spin=0.0)
        vectors, cut = eig.vectors, half_cut(ico, 6)
    monkeypatch.setattr(hamiltonian, "_workers", lambda: 1)
    serial = _manifold_entropies(vectors, basis, cut, MIXED_RANGES)
    monkeypatch.setattr(hamiltonian, "_workers", lambda: workers)
    rows = list(_weight_rows(vectors, basis, cut, MIXED_RANGES))
    sizes = [b.left_dim * (j - i) * b.right_dim for b, _ in rows for i, j in MIXED_RANGES]
    assert min(sizes) <= SVD_STACK_MAX < max(sizes)
    entropies = _manifold_entropies(vectors, basis, cut, MIXED_RANGES)
    assert np.array_equal(entropies, serial)
    for r, (i, j) in enumerate(MIXED_RANGES):
        weights = np.sort(np.concatenate([w[r] for _, w in rows]))[::-1]
        rho = sum(brute_fock_rdm(vectors[:, c], basis, cut.left, cut.right) for c in range(i, j))
        oracle = np.linalg.eigvalsh(rho / (j - i))[::-1]
        n = min(len(weights), len(oracle))
        assert np.abs(weights[:n] - oracle[:n]).max() <= 1e-12
        assert np.abs(np.concatenate([weights[n:], oracle[n:]])).max(initial=0.0) <= 1e-12
        manifold = DegenerateManifold(0.0, vectors[:, i:j])
        assert entropies[r] == degenerate_average(manifold, basis, cut).total_entropy


def test_batched_entropies_keep_the_checks():
    g = build_chain(4)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(4, 0))
    eig, cut = dense_spectrum(h), half_cut(g, 2)
    # no columns: an empty profile, while an empty manifold has no average
    empty = EigenSet(np.zeros(0), np.zeros((h.dim, 0)), np.zeros(0))
    assert entropy_profile(empty, h.basis, cut).y.shape == (0,)
    with pytest.raises(EntanglementError, match="empty degenerate manifold"):
        degenerate_average(DegenerateManifold(0.0, np.zeros((h.dim, 0))), h.basis, cut)
    with pytest.raises(EntanglementError, match="sum to 0.0, expected 1"):
        _manifold_entropies(eig.vectors, h.basis, cut, [(0, 1), (1, 1)])
    scaled = eig.vectors.copy()
    scaled[:, 5] *= 2.0
    with pytest.raises(EntanglementError, match=r"not normalized \(\|v\| = 2.0"):
        entropy_profile(EigenSet(eig.values, scaled, eig.residuals), h.basis, cut)
    with pytest.raises(EntanglementError, match="length 35 does not match the basis dimension 36"):
        entropy_profile(EigenSet(eig.values, eig.vectors[:-1], eig.residuals), h.basis, cut)
