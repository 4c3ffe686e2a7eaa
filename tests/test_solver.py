import numpy as np
import pytest
import scipy.sparse as sp

from conftest import ring
from edkit import hamiltonian
from edkit.basis import Sector
from edkit.hamiltonian import ModelSpec, build_model
from edkit.lattice import build_chain, build_icosahedron
from edkit.solver import (
    MAX_MATVECS_DEFAULT,
    DimensionCapError,
    EigenSet,
    NonConvergenceError,
    SolverError,
    _gershgorin,
    _lowest_states,
    _recur,
    dense_spectrum,
    dense_subspace_spectrum,
    group_degenerate,
    lanczos_lowest,
    lowest_in_label,
    sharpen_spin,
)
from edkit.symmetry import parse_label, projector, total_spin


def _all_sectors(n):
    for ne in range(0, 2 * n + 1):
        for tm in range(-min(ne, 2 * n - ne), min(ne, 2 * n - ne) + 1, 2):
            yield Sector(ne, tm)


def test_dense_two_site_closed_form():
    g = build_chain(2)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(2, 0))
    eig = dense_spectrum(h)
    root = np.sqrt(16 + 16.0)
    assert np.allclose(eig.values, sorted([(4 - root) / 2, 0, 4, (4 + root) / 2]), atol=1e-12)
    assert np.all(eig.residuals < 1e-12)


def test_dense_trace_identity(rng):
    a = rng.standard_normal((50, 50))
    a = 0.5 * (a + a.T)
    eig = dense_spectrum(a)
    assert eig.values.sum() == pytest.approx(np.trace(a), abs=1e-9)


def test_dense_cap():
    g = build_chain(8)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    with pytest.raises(DimensionCapError, match="lanczos"):
        dense_spectrum(h, cap=100)


def test_dense_vs_lanczos_every_sector_six_sites():
    g = build_chain(6)
    for spec in (ModelSpec(kind="hubbard", t=-1.0, U=4.0), ModelSpec(kind="ppp", t=-2.4, U=11.26)):
        for sector in _all_sectors(6):
            h = build_model(g, spec, sector)
            if h.dim == 0:
                continue
            d = dense_spectrum(h)
            l = lanczos_lowest(h, k=1, tol=1e-10, seed=1)
            assert abs(d.values[0] - l.values[0]) < 1e-9
            # variational bound
            assert l.values[0] >= d.values[0] - 1e-9
            if h.dim < 3:
                continue
            # deflated solves, or the dense branch for dim <= 4
            l = lanczos_lowest(h, k=3, tol=1e-10, seed=1)
            assert np.abs(l.values - d.values[:3]).max() < 1e-9
            assert np.abs(l.vectors.T @ l.vectors - np.eye(3)).max() < 1e-10
    # state i of a solve depends only on the states before it
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    two = lanczos_lowest(h, k=2, tol=1e-10, seed=1)
    four = lanczos_lowest(h, k=4, tol=1e-10, seed=1)
    assert np.array_equal(two.values, four.values[:2])
    assert np.array_equal(two.vectors, four.vectors[:, :2])


def test_lanczos_ten_site_residual():
    g = build_chain(10)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(10, 0))
    eig = lanczos_lowest(h, k=1, tol=1e-8, seed=1)
    assert h.dim == 63504
    assert eig.residuals[0] <= 1e-8


def test_lanczos_triple_degeneracy():
    h = sp.diags([0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    eig = lanczos_lowest(h, k=4, tol=1e-12, seed=2)
    assert np.allclose(eig.values, [0.0, 1.0, 1.0, 1.0], atol=1e-11)
    gram = eig.vectors.T @ eig.vectors
    assert np.abs(gram - np.eye(4)).max() < 1e-10


def test_lanczos_determinism():
    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    a = lanczos_lowest(h, k=3, tol=1e-10, seed=1)
    b = lanczos_lowest(h, k=3, tol=1e-10, seed=1)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_lanczos_k1_determinism():
    h = build_model(build_chain(8), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    a = lanczos_lowest(h, k=1, tol=1e-10, seed=1)
    b = lanczos_lowest(h, k=1, tol=1e-10, seed=1)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.residuals, b.residuals)
    assert a.matvecs == b.matvecs > 0


@pytest.mark.parametrize("k", [1, 3])
def test_lanczos_bits_do_not_depend_on_cpus_or_blocks(k, monkeypatch):
    # products and vector updates run in row blocks, on a pool of one worker
    # per CPU; with one worker, with two and with blocks of 500 entries
    # (seven rows of the 70 x 70 layout) every returned bit is the same
    solves = []
    for workers, block in ((1, hamiltonian._BLOCK), (2, 500), (1, 500)):
        monkeypatch.setattr(hamiltonian, "_workers", lambda: workers)
        monkeypatch.setattr(hamiltonian, "_BLOCK", block)
        h = build_model(build_chain(8), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
        solves.append(lanczos_lowest(h, k=k, tol=1e-10, seed=1))
    first = solves[0]
    for eig in solves[1:]:
        for name in ("values", "vectors", "residuals"):
            assert np.array_equal(getattr(eig, name), getattr(first, name)), name
        assert eig.matvecs == first.matvecs > 0


@pytest.mark.parametrize("block", [64, 1 << 16])
def test_recur_takes_the_whole_vector_steps(block, monkeypatch, rng):
    # each entry of the blocked update goes through the whole-vector steps
    # w -= alpha v; w -= beta_prev v_prev; w /= beta; x += y w in that order
    monkeypatch.setattr(hamiltonian, "_BLOCK", block)
    w, v, v_prev, x = rng.standard_normal((4, 1000))
    want_w, want_x = w.copy(), x.copy()
    want_w -= 0.3 * v
    want_w -= 0.7 * v_prev
    want_w /= 1.1
    want_x += 0.9 * want_w
    _recur(w, v, v_prev, 0.3, 0.7, 1.1, x, 0.9)
    assert np.array_equal(w, want_w) and np.array_equal(x, want_x)
    w, want_w = v.copy(), v.copy()
    want_w -= 0.3 * x
    _recur(w, x, None, 0.3, 0.0)
    assert np.array_equal(w, want_w)


def test_two_pass_tiny_sectors_stop_on_invariant_subspace():
    # a Krylov space of a dim-3..6 sector is invariant after at most dim
    # steps: pass 1 must stop there, before dividing by a vanishing beta
    tiny = []
    for n in (2, 3, 4):
        for sector in _all_sectors(n):
            for kind in ("huckel", "hubbard"):
                h = build_model(build_chain(n), ModelSpec(kind=kind, t=-1.0, U=4.0), sector)
                if 3 <= h.dim <= 6:
                    tiny.append(h)
    tiny.append(sp.csr_matrix((5, 5)))  # the zero operator: beta is exactly 0
    assert len(tiny) > 10
    for h in tiny:
        eig = lanczos_lowest(h, k=1, tol=1e-10, seed=4)
        dim = h.shape[0] if sp.issparse(h) else h.dim
        assert np.all(np.isfinite(eig.vectors)) and np.isfinite(eig.values[0])
        assert eig.residuals[0] <= 1e-10
        assert eig.matvecs <= 2 * dim  # pass 1 took at most dim steps
        assert abs(eig.values[0] - dense_spectrum(h).values[0]) < 1e-10


@pytest.mark.parametrize("n_sites", [5, 6])
def test_two_pass_degenerate_ground_manifold(n_sites):
    # 5 electrons on a ring: the ground level is a momentum doublet, and the
    # single Krylov space returns one member of it
    h = build_model(ring(n_sites), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(5, 1))
    dense = dense_spectrum(h).values
    assert abs(dense[1] - dense[0]) < 1e-12
    eig = lanczos_lowest(h, k=1, tol=1e-10, seed=1)
    assert eig.residuals[0] <= 1e-10
    assert abs(eig.values[0] - dense[0]) < 1e-10


def test_two_pass_matches_arpack_ten_sites():
    # SciPy's ARPACK is the independent oracle for both the k = 1 and the
    # deflated k = 2 solve
    import scipy.sparse.linalg as spla

    h = build_model(build_chain(10), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(10, 0))
    arpack = np.sort(spla.eigsh(h.matrix, k=2, which="SA")[0])
    one = lanczos_lowest(h, k=1, tol=1e-10, seed=1)
    two = lanczos_lowest(h, k=2, tol=1e-10, seed=1)
    assert abs(one.values[0] - arpack[0]) < 1e-10
    assert np.abs(two.values - arpack).max() < 1e-10
    assert one.matvecs > 0 and two.matvecs > one.matvecs


def test_gershgorin_bound_is_the_abs_row_sum():
    # the deflation shift must keep its bits: same sums as abs(mat).sum(axis=1)
    h = build_model(build_chain(6), ModelSpec(kind="ppp", t=-2.4, U=11.26), Sector(6, 0))
    empty_rows = sp.csr_matrix(([-2.0, 3.0, 0.5], ([1, 1, 3], [0, 2, 3])), shape=(5, 5))
    for mat in (h.matrix, empty_rows, sp.csr_matrix((4, 4))):
        assert _gershgorin(mat) == float(np.max(abs(mat).sum(axis=1)))


def test_lanczos_nonconvergence_diagnostic():
    g = build_chain(8)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    with pytest.raises(NonConvergenceError) as err:
        lanczos_lowest(h, k=1, tol=1e-14, max_matvecs=40)
    assert err.value.best_residual > 0


def test_group_degenerate_examples():
    vecs = np.eye(3)
    eig = EigenSet(values=np.array([0.0, 1.0, 2.0]), vectors=vecs, residuals=np.zeros(3))
    assert [m.multiplicity for m in group_degenerate(eig)] == [1, 1, 1]
    eig = EigenSet(
        values=np.array([1.0, 1.0 + 1e-12, 3.0]), vectors=vecs, residuals=np.zeros(3)
    )
    manifolds = group_degenerate(eig, rel_tol=1e-9)
    assert [m.multiplicity for m in manifolds] == [2, 1]
    assert manifolds[0].eigenvalue == 1.0


def test_icosahedron_heisenberg_degenerate_manifolds():
    ico = build_icosahedron()
    h = build_model(ico, ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5), Sector(None, 0))
    eig = lanczos_lowest(h, k=20, tol=1e-10, seed=1)
    manifolds = group_degenerate(eig)
    mults = [m.multiplicity for m in manifolds]
    # T-, G- and H-type spatial degeneracies all appear low in the spectrum
    assert 3 in mults and 4 in mults and 5 in mults
    gram = eig.vectors.T @ eig.vectors
    assert np.abs(gram - np.eye(eig.k)).max() < 1e-10
    d = dense_spectrum(h)
    assert np.abs(eig.values - d.values[:20]).max() < 1e-9


def test_lowest_in_label_four_site_dense_oracle():
    # scan the dense spectrum for the first manifold containing a B_u-
    # singlet component and compare with the orbit-basis Lanczos result
    g = build_chain(4)
    h = build_model(g, ModelSpec(kind="huckel", t=-1.0), Sector(4, 0))
    label = parse_label("1_Bu-")
    eig = lowest_in_label(h, label, k=1, tol=1e-10)
    dense = dense_spectrum(h)
    proj = projector(h.basis, g, -1, -1)
    expected = None
    for manifold in group_degenerate(dense):
        for c in range(manifold.multiplicity):
            pv = proj.apply(manifold.vectors[:, c])
            if np.linalg.norm(pv) > 1e-8:
                pv = pv / np.linalg.norm(pv)
                if total_spin(pv, h.basis) == 0.0:
                    expected = manifold.eigenvalue
                    break
        if expected is not None:
            break
    assert expected is not None
    assert eig.values[0] == pytest.approx(expected, abs=1e-9)
    assert eig.labels == ["1_Bu-"]


def test_lowest_in_label_k2_distinct():
    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    eig = lowest_in_label(h, parse_label("1_Ag+"), k=2, tol=1e-10)
    assert eig.values[1] > eig.values[0] + 1e-8
    proj = projector(h.basis, g, 1, 1)
    for i in range(2):
        v = eig.vectors[:, i]
        assert np.linalg.norm(proj.apply(v) - v) <= 1e-8
        assert total_spin(v, h.basis) == 0.0


def test_lowest_in_label_wrong_sector():
    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    with pytest.raises(SolverError, match="2M_S = 2"):
        lowest_in_label(h, parse_label("3_Bu+"), k=1)


def test_lowest_in_label_empty_subspace():
    g = build_chain(2)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(2, 0))
    with pytest.raises(SolverError, match="empty"):
        lowest_in_label(h, parse_label("1_Ag-"), k=1)


def test_lowest_in_label_tiny_subspace():
    # the A_g+ subspace of the two-site half-filled sector holds exactly two
    # singlets; the walk through its states must cope with running out of
    # directions
    g = build_chain(2)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(2, 0))
    eig = lowest_in_label(h, parse_label("1_Ag+"), k=2, tol=1e-10)
    root = np.sqrt(32.0)
    assert np.allclose(eig.values, [(4 - root) / 2, (4 + root) / 2], atol=1e-10)


def test_lowest_in_label_projects_only_returned_vectors(monkeypatch):
    # the solve runs in the orbit basis; the projector is applied only by
    # the drift check on each returned vector
    from edkit.symmetry import Projector

    calls = []
    apply = Projector.apply

    def counting(self, v):
        calls.append(1)
        return apply(self, v)

    monkeypatch.setattr(Projector, "apply", counting)
    g = build_chain(10)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(10, 0))
    eig = lowest_in_label(h, parse_label("1_Ag+"), k=1, tol=1e-10)
    assert eig.labels == ["1_Ag+"] and eig.residuals[0] <= 1e-10
    assert len(calls) <= eig.k


def test_dense_subspace_spectrum_matches_projected_scan():
    g = build_chain(4)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(4, 0))
    proj = projector(h.basis, g, 1, 1)
    sub = dense_subspace_spectrum(h, 1, 1)
    dense = dense_spectrum(h)
    # every subspace eigenvalue appears in the full spectrum
    for lam in sub.values:
        assert np.min(np.abs(dense.values - lam)) < 1e-10
    assert np.all(sub.residuals < 1e-10)
    # vectors live in the projected subspace
    for i in range(sub.k):
        v = sub.vectors[:, i]
        assert np.linalg.norm(proj.apply(v) - v) < 1e-10


def test_sharpen_spin_separates_mixed_manifold():
    # two exactly degenerate states of different S: sharpen recovers pure spins
    g = build_chain(2)
    h = build_model(g, ModelSpec(kind="heisenberg", J=0.0, site_spin=0.5), Sector(None, 0))
    eig = dense_spectrum(h)  # J = 0: everything degenerate at 0
    rot = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    mixed = EigenSet(
        values=eig.values.copy(), vectors=eig.vectors @ rot, residuals=eig.residuals.copy()
    )
    sharp = sharpen_spin(mixed, h.basis)
    spins = sorted(total_spin(sharp.vectors[:, i], h.basis) for i in range(2))
    assert spins == [0.0, 1.0]


def test_sharpen_spin_holds_one_copy_of_the_block():
    # the 6-site 1_Ag+ block has no degenerate manifold, so sharpening only
    # copies the vectors once (the input is never mutated) and fixes signs
    import tracemalloc

    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    q = projector(h.basis, g, 1, 1).orbit_basis()
    vals, y = np.linalg.eigh((q.T @ h.matrix @ q).toarray())
    eig = EigenSet(values=vals, vectors=q @ y, residuals=np.zeros(len(vals)))
    assert [m.multiplicity for m in group_degenerate(eig)] == [1] * eig.k
    before = eig.vectors.copy()
    tracemalloc.start()
    try:
        sharp = sharpen_spin(eig, h.basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * eig.vectors.nbytes
    assert np.array_equal(eig.vectors, before)
    assert np.array_equal(np.abs(sharp.vectors), np.abs(before))


def test_lanczos_nonconvergence_best_residual_finite():
    g = build_chain(8)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    for k in (1, 3):
        with pytest.raises(NonConvergenceError) as err:
            lanczos_lowest(h, k=k, tol=1e-14, max_matvecs=40)
        assert np.isfinite(err.value.best_residual)
        assert err.value.best_residual > 0


def test_lanczos_projected_k4_eight_site_subspace():
    g = build_chain(8)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    proj = projector(h.basis, g, 1, 1)  # the 1_Ag+ (C2, eh) subspace
    q = proj.orbit_basis()
    hs = q.T @ h.matrix @ q
    a = lanczos_lowest(hs, k=4, tol=1e-10, seed=3)
    b = lanczos_lowest(hs, k=4, tol=1e-10, seed=3)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)
    lifted = q @ a.vectors
    res = np.linalg.norm(h.matrix @ lifted - lifted * a.values[None, :], axis=0)
    assert np.all(res <= 1e-10)
    for i in range(a.k):
        v = lifted[:, i]
        assert np.linalg.norm(proj.apply(v) - v) <= 1e-8
    sub = dense_subspace_spectrum(h, 1, 1)
    assert np.abs(a.values - sub.values[:4]).max() < 1e-9


def test_lanczos_finds_every_copy_of_a_degenerate_level():
    # The icosahedron's lowest six states are a singlet and a 5-fold level.
    # One Krylov space carries a single copy of each degenerate level; the
    # deflated solves lift each found copy above the spectrum, so the next
    # copy is the lowest state of the next solve.
    ico = build_icosahedron()
    h = build_model(ico, ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5), Sector(None, 0))
    eig = lanczos_lowest(h, k=6, tol=1e-10, seed=1)
    assert np.abs(eig.values - dense_spectrum(h).values[:6]).max() < 1e-9
    assert [m.multiplicity for m in group_degenerate(eig)] == [1, 5]
    assert np.abs(eig.vectors.T @ eig.vectors - np.eye(6)).max() < 1e-10


def _two_pass_calls(monkeypatch) -> list:
    """One entry per two-pass Lanczos solve, that is per state solved."""
    import edkit.solver

    calls = []
    solve = edkit.solver._two_pass

    def spy(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(edkit.solver, "_two_pass", spy)
    return calls


def test_lowest_in_label_k1_is_one_two_pass_solve(monkeypatch):
    # the block's lowest state carries the label's spin: one solve for one
    # state
    calls = _two_pass_calls(monkeypatch)
    h = build_model(build_chain(10), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(10, 0))
    eig = lowest_in_label(h, parse_label("1_Ag+"), k=1, tol=1e-10)
    assert len(calls) == 1
    assert eig.labels == ["1_Ag+"] and eig.residuals[0] <= 1e-10


def test_lowest_in_label_solves_each_block_state_once(monkeypatch):
    # the lowest states of the 8-site (C2 -1, eh +1) block are not singlets,
    # so the solve walks the block's states up to the first singlet, solving
    # each of them once
    h = build_model(build_chain(8), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    block = dense_subspace_spectrum(h, -1, 1)
    drawn = 1 + next(i for i in range(block.k) if total_spin(block.vectors[:, i], h.basis) == 0.0)
    calls = _two_pass_calls(monkeypatch)
    eig = lowest_in_label(h, parse_label("1_Bu+"), k=1, tol=1e-10)
    assert drawn > 1 and len(calls) == drawn
    assert abs(eig.values[0] - dense_subspace_spectrum(h, -1, 1, spin=0.0).values[0]) < 1e-9
    assert total_spin(eig.vectors[:, 0], h.basis) == 0.0


def test_lowest_states_item_j_is_the_j_state_solve():
    # a k-state solve is the prefix of a larger one: item j of the stream is
    # lanczos_lowest(k=j), bit for bit
    h = build_model(build_chain(8), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    items = list(_lowest_states(h, 4, 1e-10, 1, MAX_MATVECS_DEFAULT))
    assert [item.k for item in items] == [1, 2, 3, 4]
    for j, item in enumerate(items, start=1):
        ref = lanczos_lowest(h, k=j, tol=1e-10, seed=1)
        assert item.values.tobytes() == ref.values.tobytes()
        assert item.vectors.tobytes() == ref.vectors.tobytes()
        assert item.residuals.tobytes() == ref.residuals.tobytes()
        assert item.matvecs == ref.matvecs
