import numpy as np
import pytest

from edkit.analysis import (
    AnalysisError,
    EntropyDosComparison,
    Profile,
    _paper_smoothing_groups,
    dos_histogram,
    entropy_profile,
    entropy_vs_logdos,
    excited_state_series,
    ground_state_entropy,
    labeled_state,
    spearman_rank,
    subspace_spectrum,
    sweep_block_size,
    sweep_ground_state,
)
from edkit.basis import Sector
from edkit.entanglement import degenerate_average, schmidt_spectrum
from edkit.hamiltonian import ModelSpec, build_model
from edkit.lattice import build_chain, build_icosahedron, half_cut
from edkit.solver import EigenSet, dense_spectrum, group_degenerate


def test_dos_histogram_examples():
    prof = dos_histogram([0.0, 0.1, 0.6], bin_width=0.5)
    assert prof.y.tolist() == [2.0, 1.0]
    grid = dos_histogram(np.arange(0.0, 3.0, 0.5), bin_width=0.5)
    assert np.all(grid.y == 1.0)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=500)
    prof = dos_histogram(vals, bin_width=0.5)
    assert prof.y.sum() == 500
    with pytest.raises(AnalysisError):
        dos_histogram([1.0], bin_width=0.0)
    with pytest.raises(AnalysisError):
        dos_histogram([])


def test_dos_histogram_rejects_bin_index_overflow():
    with pytest.raises(AnalysisError, match="bin width 1e-300 is too small"):
        dos_histogram([0.0, 1.0], 1e-300)


def test_profile_validation():
    with pytest.raises(AnalysisError):
        Profile(x=np.array([1.0, 0.5]), y=np.array([0.0, 0.0]))
    with pytest.raises(AnalysisError):
        Profile(x=np.array([1.0]), y=np.array([0.0, 0.0]))


def test_entropy_profile_none_passthrough():
    g = build_chain(2)
    h = build_model(g, ModelSpec(kind="heisenberg"), Sector(None, 0))
    eig = dense_spectrum(h)
    prof = entropy_profile(eig, h.basis, half_cut(g, 1), smoothing="none")
    assert prof.x.tolist() == eig.values.tolist()
    assert len(prof.y) == 2
    assert prof.y[0] == pytest.approx(1.0, abs=1e-12)  # singlet


def test_paper_smoothing_group_boundaries():
    groups = _paper_smoothing_groups(200)
    # five raw states, then groups of four through state 37, mirrored tail
    assert groups[:5] == [[0], [1], [2], [3], [4]]
    assert groups[5] == [5, 6, 7, 8]
    assert groups[12] == [33, 34, 35, 36]
    assert groups[13] == [37, 38, 39, 40, 41, 42, 43, 44, 45, 46]  # middle tens
    assert groups[-5:] == [[195], [196], [197], [198], [199]]
    assert groups[-6] == [191, 192, 193, 194]
    flat = [i for grp in groups for i in grp]
    assert flat == list(range(200))  # partition, order preserved


def test_paper_smoothing_conserves_mass():
    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    eig = dense_spectrum(h)
    cut = half_cut(g, 3)
    raw = entropy_profile(eig, h.basis, cut, smoothing="none")
    smoothed = entropy_profile(eig, h.basis, cut, smoothing="paper")
    groups = _paper_smoothing_groups(eig.k)
    assert len(smoothed.y) == len(groups)
    for g_idx, grp in enumerate(groups):
        assert smoothed.y[g_idx] == pytest.approx(raw.y[grp].mean(), abs=1e-14)
        assert smoothed.x[g_idx] == pytest.approx(raw.x[grp].mean(), abs=1e-12)


def test_paper_smoothing_fallback_warns():
    g = build_chain(2)
    h = build_model(g, ModelSpec(kind="heisenberg"), Sector(None, 0))
    eig = dense_spectrum(h)
    with pytest.warns(UserWarning, match="90 states"):
        prof = entropy_profile(eig, h.basis, half_cut(g, 1), smoothing="paper")
    assert prof.metadata["smoothing"] == "none(fallback)"


def test_energy_bin_smoothing():
    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    eig = dense_spectrum(h)
    prof = entropy_profile(eig, h.basis, half_cut(g, 3), smoothing="energy_bin", bin_width=1.0)
    assert np.all(np.diff(prof.x) > 0)
    assert len(prof.x) <= np.ptp(eig.values) / 1.0 + 2


def test_sweep_ground_state_matches_dense_oracle():
    # 4-site spin-1/2 chain: compare the swept value against a direct dense
    # computation of the singlet ground state
    profs = sweep_ground_state({"heis": ModelSpec(kind="heisenberg")}, [4])
    g = build_chain(4)
    h = build_model(g, ModelSpec(kind="heisenberg"), Sector(None, 0))
    eig = dense_spectrum(h)
    expected = schmidt_spectrum(eig.vectors[:, 0], h.basis, half_cut(g, 2)).total_entropy
    assert profs["heis"].y[0] == pytest.approx(expected, abs=1e-9)


def test_sweep_rejects_odd_lengths():
    with pytest.raises(AnalysisError):
        sweep_ground_state({"heis": ModelSpec(kind="heisenberg")}, [5])


def test_ground_state_entropy_odd_lengths():
    # odd chains land in the lowest compatible |M_S| sector: 1/2 for
    # spin-1/2 and electrons, 0 for spin-1
    s_half = ground_state_entropy(build_chain(5), ModelSpec(kind="heisenberg", site_spin=0.5))
    s_one = ground_state_entropy(build_chain(5), ModelSpec(kind="heisenberg", site_spin=1.0))
    s_el = ground_state_entropy(build_chain(5), ModelSpec(kind="hubbard", t=-1.0, U=4.0))
    assert s_half > 0 and s_one > 0 and s_el > 0


def test_hubbard_large_u_approaches_heisenberg():
    s_hub = ground_state_entropy(build_chain(6), ModelSpec(kind="hubbard", t=-1.0, U=40.0))
    s_heis = ground_state_entropy(build_chain(6), ModelSpec(kind="heisenberg"))
    assert abs(s_hub - s_heis) <= 0.05


def test_chain_length_alternation_4n2_vs_4n():
    s6 = ground_state_entropy(build_chain(6), ModelSpec(kind="hubbard", t=-1.0, U=4.0))
    s8 = ground_state_entropy(build_chain(8), ModelSpec(kind="hubbard", t=-1.0, U=4.0))
    assert s6 > s8


def test_block_sweep_symmetry_and_alternation():
    prof = sweep_block_size(ModelSpec(kind="ppp", t=-2.4, U=11.26), n_sites=8)
    y = prof.y
    assert len(y) == 7
    for k in range(1, 8):
        assert y[k - 1] == pytest.approx(y[8 - k - 1], abs=1e-9)
    # odd blocks high, even blocks low
    assert y[2] > y[1] and y[2] > y[3]  # S(3) > S(2), S(4)
    assert y[4] > y[3] and y[4] > y[5]  # S(5) > S(4), S(6)


def test_excited_state_series_finite():
    out = excited_state_series(
        {"hubbard": ModelSpec(kind="hubbard", t=-1.0, U=2.0)},
        [4, 6],
        targets=(("1_Ag+", "1_Ag+", 1), ("1_Bu-", "1_Bu-", 1)),
    )
    for prof in out.values():
        assert np.all(np.isfinite(prof.y))
        assert np.all(prof.y >= 0)


def test_labeled_state_builds_sector():
    g = build_chain(6)
    eig, basis = labeled_state(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), "3_Bu+")
    assert basis.sector.twice_ms == 2
    assert eig.labels == ["3_Bu+"]


def test_spearman_synthetic():
    assert spearman_rank([1, 2, 3, 4], [1, 4, 9, 16]) == pytest.approx(1.0, abs=1e-12)
    assert spearman_rank([1, 2, 3, 4], [5, 5, 5, 5]) == 0.0
    assert spearman_rank([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_entropy_vs_logdos_structure():
    g = build_chain(6)
    h = build_model(g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), Sector(6, 0))
    eig = dense_spectrum(h)
    comp = entropy_vs_logdos(eig, h.basis, half_cut(g, 3), bin_width=0.5)
    assert isinstance(comp, EntropyDosComparison)
    assert len(comp.energy) == len(comp.mean_entropy) == len(comp.log2_dos)
    assert comp.spearman is not None
    wide = entropy_vs_logdos(eig, h.basis, half_cut(g, 3), bin_width=1e3)
    assert wide.spearman is None  # fewer than 4 bins


def test_profile_dome_shape_eight_site_subspace():
    g = build_chain(8)
    eig, basis = subspace_spectrum(
        g, ModelSpec(kind="hubbard", t=-1.0, U=4.0), 0, 1, 1, spin=0.0
    )
    prof = entropy_profile(eig, basis, half_cut(g, 4), smoothing="none")
    n = len(prof.y)
    middle = prof.y[n // 3 : 2 * n // 3].mean()
    head = prof.y[: n // 5].mean()
    tail = prof.y[-n // 5 :].mean()
    assert middle > head and middle > tail


@pytest.mark.filterwarnings("ignore:paper smoothing needs")
@pytest.mark.parametrize("block", ["icosahedron C2+ S=0", "hubbard8 1Ag+"])
def test_profiles_do_not_depend_on_manifold_basis(block):
    if block.startswith("icosahedron"):
        g = build_icosahedron()
        spec = ModelSpec(kind="heisenberg", J=1.0, site_spin=0.5)
        eig, basis = subspace_spectrum(g, spec, 0, 1, None, spin=0.0)
        cut = half_cut(g, 6)
    else:
        g = build_chain(8)
        spec = ModelSpec(kind="hubbard", t=-1.0, U=4.0)
        eig, basis = subspace_spectrum(g, spec, 0, 1, 1, spin=0.0)
        cut = half_cut(g, 4)
    manifolds = group_degenerate(eig)
    assert any(m.multiplicity > 1 for m in manifolds)
    rng = np.random.default_rng(2011)
    rotated = []
    for m in manifolds:
        q, _r = np.linalg.qr(rng.standard_normal((m.multiplicity, m.multiplicity)))
        rotated.append(m.vectors @ q)
    remixed = EigenSet(values=eig.values, vectors=np.hstack(rotated), residuals=eig.residuals)

    profiles = {}
    for smoothing in ("none", "paper", "energy_bin"):
        ref = profiles[smoothing] = entropy_profile(eig, basis, cut, smoothing=smoothing)
        got = entropy_profile(remixed, basis, cut, smoothing=smoothing)
        assert np.array_equal(got.x, ref.x)
        assert np.abs(got.y - ref.y).max() <= 1e-12, smoothing
    ref = entropy_vs_logdos(eig, basis, cut)
    got = entropy_vs_logdos(remixed, basis, cut)
    assert np.array_equal(got.log2_dos, ref.log2_dos)
    assert np.abs(got.mean_entropy - ref.mean_entropy).max() <= 1e-12
    assert got.spearman == ref.spearman

    # a state alone in its manifold keeps its own Schmidt entropy, bit for bit;
    # every member of a larger manifold carries the manifold average
    raw = profiles["none"].y
    start = 0
    for m in manifolds:
        stop = start + m.multiplicity
        if m.multiplicity == 1:
            want = schmidt_spectrum(eig.vectors[:, start], basis, cut).total_entropy
        else:
            want = degenerate_average(m, basis, cut).total_entropy
        assert np.all(raw[start:stop] == want)
        start = stop
