import inspect
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import ring
from edkit import hamiltonian
from edkit.basis import Sector
from edkit.hamiltonian import ModelSpec, build_model
from edkit.lattice import build_chain, build_icosahedron
from edkit.solver import (
    DimensionCapError,
    EigenSet,
    NonConvergenceError,
    SolverError,
    _canonical_sign,
    _gershgorin,
    _lowest_states,
    _recur,
    _symmetry_block,
    dense_spectrum,
    dense_subspace_spectrum,
    group_degenerate,
    lanczos_lowest,
    lowest_in_label,
    sharpen_spin,
)
from edkit.symmetry import SymmetryError, parse_label, projector, raising_operator, total_spin


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


def test_dense_cap(monkeypatch):
    import edkit.solver

    g = build_chain(8)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    monkeypatch.setattr(edkit.solver, "DENSE_CAP_DEFAULT", 100)
    with pytest.raises(DimensionCapError, match="lanczos"):
        dense_spectrum(h)


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


def test_lanczos_nonconvergence_diagnostic(monkeypatch):
    import edkit.solver

    g = build_chain(8)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    monkeypatch.setattr(edkit.solver, "MAX_MATVECS_DEFAULT", 40)
    with pytest.raises(NonConvergenceError) as err:
        lanczos_lowest(h, k=1, tol=1e-14)
    assert err.value.best_residual > 0


def test_group_degenerate_examples():
    vecs = np.eye(3)
    eig = EigenSet(values=np.array([0.0, 1.0, 2.0]), vectors=vecs, residuals=np.zeros(3))
    assert [m.multiplicity for m in group_degenerate(eig)] == [1, 1, 1]
    eig = EigenSet(
        values=np.array([1.0, 1.0 + 1e-12, 3.0]), vectors=vecs, residuals=np.zeros(3)
    )
    manifolds = group_degenerate(eig)
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


def test_dense_subspace_cap_names_the_block_dimension(monkeypatch):
    # the cap is checked on the block's dimension, once the block is built
    import edkit.solver

    h = build_model(build_chain(8), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    m = projector(h.basis, h.geometry, 1, 1).orbit_basis().shape[1]
    monkeypatch.setattr(edkit.solver, "DENSE_CAP_DEFAULT", m - 1)
    with pytest.raises(DimensionCapError, match=f"^subspace dimension {m} exceeds the dense cap {m - 1}$"):
        dense_subspace_spectrum(h, 1, 1)


def _blocks(g, spec, sector):
    """Every (C2, eh, spin) block of the sector that exists and is not empty."""
    h = build_model(g, spec, sector)
    c2s = (1, -1, None) if g.c2_perm is not None else (None,)
    ehs = (1, -1, None) if spec.fermionic and sector.n_electrons == g.n_sites else (None,)
    spins = (None, 0.0, 1.0) if sector.twice_ms == 0 else (None,)
    for c2, eh, spin in itertools.product(c2s, ehs, spins):
        try:
            block = _symmetry_block(h, c2, eh, spin, "block")
        except SolverError:  # an empty block
            continue
        yield h, block


ORACLE_MODELS = [
    ModelSpec(kind="hubbard", t=-1.0, U=4.0), ModelSpec(kind="ppp", t=-2.4, U=11.26),
    ModelSpec(kind="huckel", t=-2.4),
]
ORACLE_CASES = [
    pytest.param(build_chain(n, 1.397), spec, Sector(n, tm), id=f"{spec.kind}{n}-2ms{tm}")
    for n in (4, 6, 8) for spec in ORACLE_MODELS for tm in (0, 2)
] + [
    pytest.param(build_chain(6), ModelSpec(kind="heisenberg", site_spin=s), Sector(None, 0),
                 id=f"heisenberg6-s{s}")
    for s in (0.5, 1.0)
] + [pytest.param(build_icosahedron(1.397), ModelSpec(kind="heisenberg"), Sector(None, 0), id="icosahedron")]


@pytest.mark.parametrize("g, spec, sector", ORACLE_CASES)
def test_block_read_off_representatives_is_qt_h_q(g, spec, sector):
    # the block is built from the representatives' rows of H alone; it must
    # equal the whole product Q^T H Q formed here
    count = 0
    for h, (_, q, block) in _blocks(g, spec, sector):
        oracle = (q.T @ h.matrix @ q).toarray()
        scale = np.abs(h.matrix).max()
        assert np.abs(block.toarray() - oracle).max() <= 1e-13 * scale
        # used as read: symmetric to rounding, with no symmetrization
        assert abs(block - block.T).max() <= 4 * np.finfo(float).eps * scale
        count += 1
    assert count >= 3


def test_eh_block_of_ppp_away_from_z_1_is_refused(monkeypatch):
    # eh commutes with the PPP H only at z = 1; away from it the block is not
    # a symmetry block, and both block solves refuse it before building it
    from edkit.symmetry import Projector

    def never(self):
        raise AssertionError("the block was built")

    h = build_model(build_chain(6), ModelSpec(kind="ppp", t=-2.4, U=11.26, z=0.5), Sector(6, 0))
    monkeypatch.setattr(Projector, "orbit_basis", never)
    message = "electron-hole symmetry needs z = 1 in the PPP model, got z = 0.5"
    with pytest.raises(SymmetryError, match=message):
        dense_subspace_spectrum(h, 1, 1, 0.0)
    with pytest.raises(SymmetryError, match=message):
        lowest_in_label(h, parse_label("1_Ag+"))
    monkeypatch.undo()
    assert dense_subspace_spectrum(h, 1, None, 0.0).residuals.max() < 1e-10  # C2 alone stays


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


def test_empty_flip_block_names_its_spin():
    # the two-site (C2 +1, eh +1) block holds only singlets, so its spin-flip
    # odd half, asked for by spin 1, is empty
    g = build_chain(2)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(2, 0))
    message = ("the (C2 1, eh 1) symmetry subspace of sector Sector(n_electrons=2, twice_ms=0) "
               "is empty for total spin 1")
    with pytest.raises(SolverError) as err:
        dense_subspace_spectrum(h, 1, 1, spin=1.0)
    assert str(err.value) == message


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


def _canonical_sign_loop(vectors):
    """Per-column reference: negate a column whose first entry of largest
    magnitude (argmax of abs) is negative."""
    for j in range(vectors.shape[1]):
        i = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[i, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return vectors


@pytest.mark.parametrize("order", ["C", "F"])
def test_canonical_sign_matches_argmax_loop(order, rng):
    # exact +-ties in both orders, zero columns (with -0.0), and random columns
    columns = [
        [0.5, -0.5, 0.1], [-0.5, 0.5, 0.1], [0.0, -0.3, 0.3], [0.0, 0.3, -0.3],
        [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [-0.2, 0.1, 0.2], [0.1, -0.7, 0.7],
    ]
    block = np.column_stack([np.array(columns).T, rng.standard_normal((3, 6))])
    block = np.vstack([block, np.zeros((2, block.shape[1]))])
    got = _canonical_sign(np.array(block, order=order))
    ref = _canonical_sign_loop(np.array(block, order=order))
    assert got.tobytes() == ref.tobytes()
    assert got.flags.c_contiguous == (order == "C")
    for j in (1, 2, 6, 7):  # the first entry of largest magnitude is negative
        assert got[:, j].tolist() == [-x for x in block[:, j]]
    for j in (0, 3, 4):
        assert got[:, j].tolist() == block[:, j].tolist()


def test_sharpen_spin_separates_mixed_manifold():
    # two exactly degenerate states of different S: sharpen recovers pure spins
    g = build_chain(2)
    h = build_model(g, ModelSpec(kind="heisenberg", J=0.0, site_spin=0.5), Sector(None, 0))
    eig = dense_spectrum(h)  # J = 0: everything degenerate at 0
    rot = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    mixed = EigenSet(
        values=eig.values.copy(), vectors=eig.vectors @ rot, residuals=eig.residuals.copy()
    )
    sharp = sharpen_spin(mixed, raising_operator(h.basis) @ mixed.vectors, h.basis)
    spins = sorted(total_spin(sharp.vectors[:, i], h.basis) for i in range(2))
    assert spins == [0.0, 1.0]


def test_sharpen_spin_holds_one_copy_of_the_block():
    # the 6-site 1_Ag+ block has no degenerate manifold, so sharpening only
    # copies the vectors once (the input is never mutated) and fixes signs;
    # the S+ images come from the caller
    import tracemalloc

    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    q = projector(h.basis, g, 1, 1).orbit_basis()
    vals, y = np.linalg.eigh((q.T @ h.matrix @ q).toarray())
    eig = EigenSet(values=vals, vectors=q @ y, residuals=np.zeros(len(vals)))
    assert [m.multiplicity for m in group_degenerate(eig)] == [1] * eig.k
    before = eig.vectors.copy()
    images = raising_operator(h.basis) @ eig.vectors
    tracemalloc.start()
    try:
        sharp = sharpen_spin(eig, images, h.basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * eig.vectors.nbytes
    assert np.array_equal(eig.vectors, before)
    assert np.array_equal(np.abs(sharp.vectors), np.abs(before))


def test_lanczos_nonconvergence_best_residual_finite(monkeypatch):
    import edkit.solver

    g = build_chain(8)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    monkeypatch.setattr(edkit.solver, "MAX_MATVECS_DEFAULT", 40)
    for k in (1, 3):
        with pytest.raises(NonConvergenceError) as err:
            lanczos_lowest(h, k=k, tol=1e-14)
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


FLIP_BLOCKS = [
    pytest.param(build_chain(6, 1.397), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0), 1, 1,
                 id="hubbard6-Ag+"),
    pytest.param(build_chain(6, 1.397), ModelSpec(kind="ppp", t=-2.4, U=11.26), Sector(6, 0), -1, -1,
                 id="ppp6-Bu-"),
    pytest.param(build_chain(8, 1.397), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0), -1, 1,
                 id="hubbard8-Bu+"),
    pytest.param(build_chain(6, 1.397), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(4, 0), 1, None,
                 id="hubbard6-N4-Ag"),
    pytest.param(build_icosahedron(1.397), ModelSpec(kind="heisenberg"), Sector(None, 0), 1, None,
                 id="icosahedron-C2+"),
    pytest.param(build_chain(10), ModelSpec(kind="heisenberg"), Sector(None, 0), -1, None,
                 id="heisenberg10-C2-"),
]


@pytest.mark.parametrize("g, spec, sector, c2, eh", FLIP_BLOCKS)
def test_flip_block_equals_filtered_two_generator_block(g, spec, sector, c2, eh):
    # at 2M_S = 0 a spin-resolved dense block is the spin-flip block of
    # parity (-1)^S; the two-generator block, diagonalized here with the S^2
    # eigenvalues of each degenerate manifold (the icosahedron's manifolds
    # mix spins), holds the same states at each S
    h = build_model(g, spec, sector)
    q = projector(h.basis, g, c2, eh).orbit_basis()
    vals, y = np.linalg.eigh((q.T @ h.matrix @ q).toarray())
    images = raising_operator(h.basis) @ (q @ y)
    s2 = np.empty_like(vals)
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[i] <= 1e-9 * max(1.0, abs(vals[i])):
            j += 1
        s2[i:j] = np.linalg.eigvalsh(images[:, i:j].T @ images[:, i:j])
        i = j
    checked = 0
    for s in range(7):  # every S of 12 spins 1/2 or 8 electrons
        want = vals[np.abs(s2 - s * (s + 1)) < 1e-6]
        try:
            got = dense_subspace_spectrum(h, c2, eh, spin=float(s)).values
        except SolverError:
            got = np.empty(0)
        assert len(got) == len(want), s
        assert np.abs(got - want).max(initial=0.0) < 1e-12
        checked += len(got)
    assert checked == len(vals)


@pytest.mark.parametrize("u", [0.0, 1.0, 4.0])
def test_four_site_1bu_plus_k3_finds_only_two(u):
    # the 4-site (C2 -1, eh +1, flip +1) block holds two states, both
    # singlets: a third 1_Bu+ does not exist, and the solve says so after
    # walking the whole block, each state within tol
    h = build_model(build_chain(4, 1.397), ModelSpec(kind="hubbard", t=-1.0, U=u), Sector(4, 0))
    assert len(dense_subspace_spectrum(h, -1, 1, spin=0.0).values) == 2
    with pytest.raises(SolverError, match="found only 2 of 3 states with label 1_Bu[+]") as err:
        lowest_in_label(h, parse_label("1_Bu+"), k=3, tol=1e-10)
    assert not isinstance(err.value, NonConvergenceError)


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
    # the 1_Bu+ solve walks the 8-site (C2 -1, eh +1) block at spin-flip
    # parity +1, which holds the even total spins; its second state is a
    # quintet, so k = 2 walks the block up to its second singlet, solving
    # each state on the way once
    h = build_model(build_chain(8), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    block = dense_subspace_spectrum(h, -1, 1)
    spins = [total_spin(block.vectors[:, i], h.basis) for i in range(block.k)]
    even = [s for s in spins if s % 2 == 0]
    drawn = 1 + [i for i, s in enumerate(even) if s == 0.0][1]
    calls = _two_pass_calls(monkeypatch)
    eig = lowest_in_label(h, parse_label("1_Bu+"), k=2, tol=1e-10)
    assert drawn > 2 and len(calls) == drawn
    dense = dense_subspace_spectrum(h, -1, 1, spin=0.0)
    assert np.abs(eig.values - dense.values[:2]).max() < 1e-9
    assert all(total_spin(eig.vectors[:, i], h.basis) == 0.0 for i in range(2))


def test_lowest_states_item_j_is_the_j_state_solve():
    # a k-state solve is the prefix of a larger one: item j of the stream,
    # sorted from the order drawn, is lanczos_lowest(k=j), bit for bit
    h = build_model(build_chain(8), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(8, 0))
    stream = _lowest_states(h, 4, 1e-10, 1)
    items = [EigenSet(vals, vecs, res, matvecs=matvecs) for vals, vecs, res, matvecs in stream]
    assert [item.k for item in items] == [1, 2, 3, 4]
    for j, item in enumerate(items, start=1):
        ref = lanczos_lowest(h, k=j, tol=1e-10, seed=1)
        assert item.values.tobytes() == ref.values.tobytes()
        assert item.vectors.tobytes() == ref.vectors.tobytes()
        assert item.residuals.tobytes() == ref.residuals.tobytes()
        assert item.matvecs == ref.matvecs


def test_deep_deflated_solve_matches_dense():
    # the Ritz vector of the deflated H keeps small components along the
    # found states; unprojected, they held the residual on H just above tol
    # from about the 14th state on, and k = 30 ended in NonConvergenceError
    h = build_model(build_chain(6), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    eig = lanczos_lowest(h, k=30, tol=1e-10)
    assert np.abs(eig.values - dense_spectrum(h).values[:30]).max() <= 1e-9
    assert eig.residuals.max() <= 1e-10


def test_deep_labeled_solve_is_the_head_of_its_dense_block():
    # 1_Ag+ at k = 20 walks 20 states of the 68-state block (56 singlets)
    h = build_model(build_chain(6), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    eig = lowest_in_label(h, parse_label("1_Ag+"), k=20, tol=1e-10)
    dense = dense_subspace_spectrum(h, 1, 1, 0.0)
    assert np.abs(eig.values - dense.values[:20]).max() <= 1e-9
    assert eig.residuals.max() <= 1e-10


def test_lowest_in_label_checks_each_drawn_state_once(monkeypatch):
    # the 6-site 1_Bu+ at k = 2 draws 4 block states (singlet, quintet,
    # quintet, singlet); each is lifted and its residual checked on the full
    # H once, where re-checking every found state after each new one made
    # 1 + 2 + 3 + 4 = 10 check columns
    import edkit.solver

    h = build_model(build_chain(6), ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    solves, checked = _two_pass_calls(monkeypatch), []
    rayleigh = edkit.solver._rayleigh

    def spy(mat, x):
        if mat is h.matrix:
            checked.append(x.shape[1])
        return rayleigh(mat, x)

    monkeypatch.setattr(edkit.solver, "_rayleigh", spy)
    eig = lowest_in_label(h, parse_label("1_Bu+"), k=2, tol=1e-10)
    assert eig.k == 2 and len(solves) == 4
    assert checked == [1] * 4


HUBBARD = ModelSpec(kind="hubbard", t=-1.0, U=4.0)
PPP = ModelSpec(kind="ppp", t=-2.4, U=11.26)
BLOCK_CASES = [
    pytest.param(n, spec, text, k, id=f"{n}-{name}-{text}-k{k}")
    for n in (6, 8)
    for name, spec in (("hubbard", HUBBARD), ("ppp", PPP))
    for text, k in (("1_Ag+", 2), ("1_Bu-", 1), ("3_Bu+", 1), ("1_Bu+", 2))
] + [
    # at U = 0 the block's degenerate partners come out of the Lanczos
    # stream below the state drawn before them, so the new state is not the
    # last column of the stream's sorted item
    pytest.param(6, ModelSpec(kind="hubbard", t=-1.0, U=0.0), "1_Bu+", 3, id="6-free-1_Bu+-k3"),
]


@pytest.mark.parametrize("n, spec, text, k", BLOCK_CASES)
def test_labeled_solve_is_the_head_of_its_dense_block(n, spec, text, k, monkeypatch):
    # both block solves end in the same sharpen-and-select step: the k
    # labeled states are the first k of the dense block at the label's spin,
    # and, bit for bit, those of one spin step over every state drawn
    import edkit.solver

    label = parse_label(text)
    h = build_model(build_chain(n, 1.397), spec, Sector(n, label.twice_ms_highest))
    drawn, check = [], edkit.solver._checked_eigenset

    def spy(mat, vecs, tol):
        new = check(mat, vecs, tol)
        if mat is h.matrix:
            drawn.append(new)
        return new

    monkeypatch.setattr(edkit.solver, "_checked_eigenset", spy)
    eig = lowest_in_label(h, label, k=k, tol=1e-10)
    fields = ("values", "vectors", "residuals")
    found = EigenSet(*(np.hstack([getattr(d, f) for d in drawn]) for f in fields))
    once = sharpen_spin(found, raising_operator(h.basis) @ found.vectors, h.basis, label.total_spin)
    for f in fields:
        assert getattr(eig, f).tobytes() == getattr(once, f)[..., :k].tobytes()
    dense = dense_subspace_spectrum(h, label.c2_parity, label.eh_parity, spin=label.total_spin)
    assert np.abs(eig.values - dense.values[:k]).max() < 1e-9
    assert np.abs(eig.vectors.T @ eig.vectors - np.eye(k)).max() < 1e-9
    assert np.all(eig.residuals <= 1e-10)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_eight_site_1bu_plus_k3_converges(seed):
    # the third 1_Bu+ is the block's sixth flip-even state, and the deflated
    # walk to it reaches tol from every seed
    h = build_model(build_chain(8), HUBBARD, Sector(8, 0))
    eig = lowest_in_label(h, parse_label("1_Bu+"), k=3, tol=1e-10, seed=seed)
    assert np.abs(eig.values - [-3.09268827, -2.46350634, -1.83284784]).max() < 1e-8
    assert np.all(eig.residuals <= 1e-10)


def test_block_solves_call_sharpen_spin_through_the_module(monkeypatch):
    # the benchmark's `solver.sharpen` span wraps the module attribute, so
    # both block solves must look `sharpen_spin` up there when they call it
    import edkit.solver

    calls = []

    def spy(*args, **kwargs):
        calls.append(inspect.signature(sharpen_spin).bind(*args, **kwargs).arguments["spin"])
        return sharpen_spin(*args, **kwargs)

    monkeypatch.setattr(edkit.solver, "sharpen_spin", spy)
    h = build_model(build_chain(6), HUBBARD, Sector(6, 0))
    dense_subspace_spectrum(h, 1, 1, spin=0.0)
    assert calls == [0.0]
    lowest_in_label(h, parse_label("1_Bu-"), k=1)
    assert len(calls) > 1 and calls[1:] == [0.0] * (len(calls) - 1)


class _CountingRaiser:
    """S+ that records how many columns each product raises."""

    def __init__(self, basis, columns: list) -> None:
        self.matrix, self.columns = raising_operator(basis), columns

    def __matmul__(self, x):
        self.columns.append(1 if x.ndim == 1 else x.shape[1])
        return self.matrix @ x


def test_spin_step_builds_raising_operator_once(monkeypatch):
    # S+ is built once per block solve, by the solve, and raises each column
    # once: a dense block all of its columns in one product, a labeled solve
    # each state as it is drawn; the images give both the manifold rotations
    # and every state's <S^2>
    import edkit.solver
    import edkit.symmetry

    builds, columns = [], []

    def counted(basis):
        builds.append(basis.dim)
        return _CountingRaiser(basis, columns)

    monkeypatch.setattr(edkit.symmetry, "raising_operator", counted)
    monkeypatch.setattr(edkit.solver, "raising_operator", counted)
    ico = build_icosahedron(1.397)
    h = build_model(ico, ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5), Sector(None, 0))
    eig = dense_subspace_spectrum(h, 1, None, spin=0.0)
    assert max(m.multiplicity for m in group_degenerate(eig)) > 1
    assert len(builds) == 1 and columns == [projector(h.basis, ico, 1, None, 0.0).orbit_basis().shape[1]]
    # at U = 0 the 1_Bu+ block's draws complete degenerate manifolds
    builds.clear()
    columns.clear()
    h = build_model(build_chain(6), ModelSpec(kind="hubbard", t=-1.0, U=0.0), Sector(6, 0))
    draws = _two_pass_calls(monkeypatch)
    lowest_in_label(h, parse_label("1_Bu+"), k=3)
    assert len(draws) > 3 and len(builds) == 1 and columns == [1] * len(draws)


def test_labeled_solve_holds_only_its_drawn_states():
    # the 10-site 1_Ag+ draws one state of a 63,504-state sector, so the
    # solve holds one lifted column; a (dim, k + 40) buffer is 19.9 MiB
    import tracemalloc

    h = build_model(build_chain(10), HUBBARD, Sector(10, 0))
    tracemalloc.start()
    try:
        eig = lowest_in_label(h, parse_label("1_Ag+"), k=1, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eig.k == 1 and peak < 24 * 2**20


@pytest.mark.xfail(strict=True, raises=NonConvergenceError)
def test_deflated_stream_reaches_state_98_of_five_site_sector():
    # the 5-site N = 5, 2M_S = 1 sector (dim 100) stalls at state 82 with a
    # best residual of 1.2e-10, just above tol, though the Ritz vector is
    # projected off the found states
    h = build_model(build_chain(5), HUBBARD, Sector(5, 1))
    eig = lanczos_lowest(h, k=98)
    assert np.abs(eig.values - dense_spectrum(h).values[:98]).max() <= 1e-9


CHUNK_BLOCKS = [
    pytest.param(build_icosahedron(1.397), ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5), Sector(None, 0),
                 c2, None, s, 6, id=f"icosahedron-C2{'+' if c2 > 0 else '-'}-S{s:g}")
    for c2 in (1, -1) for s in (0.0, 1.0)
] + [pytest.param(build_chain(8, 1.397), HUBBARD, Sector(8, 0), 1, 1, 0.0, 4, id="hubbard8-C2+-eh+-S0")]


@pytest.mark.parametrize("g, spec, sector, c2, eh, spin, left", CHUNK_BLOCKS)
def test_column_chunks_change_no_bit_and_split_no_manifold(g, spec, sector, c2, eh, spin, left, monkeypatch):
    # a dense block is lifted, spin-sharpened and checked in column chunks
    # that end on degenerate-manifold boundaries, and its entropies are
    # taken in the same chunks on the row-block pool; chunks of three
    # columns give the bits of one chunk, and every spin step sees whole
    # manifolds
    import sys

    import edkit.solver
    from edkit.analysis import entropy_profile
    from edkit.lattice import half_cut

    h = build_model(g, spec, sector)
    runs = {}
    for name, chunk in (("one", 1 << 40), ("three", 3 * h.dim)):
        monkeypatch.setattr(edkit.solver, "_CHUNK", chunk)
        calls = []

        def spy(eigenset, images, basis, spin=None):
            calls.append(eigenset.values)
            return sharpen_spin(eigenset, images, basis, spin)

        monkeypatch.setattr(edkit.solver, "sharpen_spin", spy)
        eig = dense_subspace_spectrum(h, c2, eh, spin)
        monkeypatch.setattr(hamiltonian, "_workers", lambda: 4)  # a pool of more threads than cores
        monkeypatch.setattr(hamiltonian, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            profile = entropy_profile(eig, h.basis, half_cut(g, left))
        finally:
            sys.setswitchinterval(interval)
            if hamiltonian._pool is not None:
                hamiltonian._pool.shutdown()
        runs[name] = (eig.values, eig.vectors, eig.residuals, profile.y), calls
    (one, [block]), (three, calls) = runs["one"], runs["three"]
    for a, b in zip(one, three):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    ranges = list(edkit.solver._degenerate_ranges(block))
    ends = {j for _, j in ranges}
    assert max(j - i for i, j in ranges) > 1  # the block has degenerate manifolds
    assert any(i // 3 != (j - 1) // 3 for i, j in ranges if j - i > 1)  # that fixed-width chunks would split
    assert len(calls) > 1 and np.concatenate(calls).tobytes() == block.tobytes()
    assert all(len(c) <= 3 or len(list(edkit.solver._degenerate_ranges(c))) == 1 for c in calls)
    assert all(end in ends for end in np.cumsum([len(c) for c in calls]))


def test_dense_block_and_its_profile_hold_only_a_chunk_beyond_their_result():
    # the 8-site (C2+, eh+, S = 0) block keeps 485 of its states, 18.1 MiB
    # of vectors; lifting, raising and checking the whole block at once
    # peaked at 73.9 MiB, and permuting every column for the entropies at
    # 28.2 MiB over the vectors
    import tracemalloc

    from edkit.analysis import entropy_profile
    from edkit.lattice import half_cut

    g = build_chain(8, 1.397)
    h = build_model(g, HUBBARD, Sector(8, 0))

    def traced(step):
        tracemalloc.start()
        try:
            return step(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    eig, solve_peak = traced(lambda: dense_subspace_spectrum(h, 1, 1, 0.0))
    _, profile_peak = traced(lambda: entropy_profile(eig, h.basis, half_cut(g, 4)))
    assert eig.k == 485 and eig.vectors.nbytes > 18 * 2**20
    assert solve_peak < 45 * 2**20 and profile_peak < 15 * 2**20
