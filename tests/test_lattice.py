import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edkit.lattice import (
    Bipartition,
    Geometry,
    GeometryError,
    build_chain,
    build_icosahedron,
    format_geometry,
    half_cut,
    load_geometry,
    save_geometry,
)


def test_chain_spacing():
    g = build_chain(10, 1.397)
    assert g.distance(1, 3) == pytest.approx(2.794, abs=1e-12)
    assert len(g.bonds) == 9


def test_chain_two_sites():
    g = build_chain(2, 1.0)
    assert g.bonds == ((1, 2),)


def test_chain_sixteen():
    g = build_chain(16, 1.397)
    assert len(g.bonds) == 15
    assert g.distance(1, 16) == pytest.approx(15 * 1.397, abs=1e-9)


def test_chain_rejects_small_and_bad_length():
    with pytest.raises(GeometryError):
        build_chain(1)
    with pytest.raises(GeometryError):
        build_chain(4, 0.0)
    # the end at 2e308 overflows: refused before NumPy's multiply warns
    with pytest.raises(GeometryError, match=r"bond_length 1e\+308 puts the chain's end beyond the float"):
        build_chain(3, 1e308)
    assert build_chain(2, 1e308).coords[1, 0] == 1e308


def test_icosahedron_combinatorics():
    g = build_icosahedron(1.397)
    assert g.n_sites == 12
    assert len(g.bonds) == 30
    degree = np.zeros(12, dtype=int)
    for i, j in g.bonds:
        degree[i - 1] += 1
        degree[j - 1] += 1
    assert np.all(degree == 5)


def test_icosahedron_edge_lengths_equal():
    g = build_icosahedron(2.5)
    for i, j in g.bonds:
        assert abs(g.distance(i, j) - 2.5) < 1e-12


def test_icosahedron_golden_ratio():
    g = build_icosahedron(1.397)
    d = g.distance_matrix
    iu = np.triu_indices(12, k=1)
    pair_d = d[iu]
    bonded = pair_d.min()
    non_bonded = pair_d[pair_d > bonded * (1 + 1e-9)].min()
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(non_bonded / bonded - phi) < 1e-10


def test_icosahedron_bonds_are_min_distance_pairs():
    g = build_icosahedron(1.0)
    d = g.distance_matrix
    iu = np.triu_indices(12, k=1)
    dmin = d[iu].min()
    pairs = {
        (i + 1, j + 1)
        for i, j in zip(*iu)
        if d[i, j] <= dmin * (1 + 1e-9)
    }
    assert len(pairs) == 30
    assert pairs == set(g.bonds)


def test_icosahedron_upper_half_is_canonical_cut():
    g = build_icosahedron()
    z = g.coords[:, 2]
    upper = set(np.argsort(-z)[:6] + 1)
    assert upper == {1, 2, 3, 4, 5, 6}
    cut = half_cut(g, 6)
    assert cut.left == (1, 2, 3, 4, 5, 6)


def test_icosahedron_c2_is_symmetry():
    g = build_icosahedron()
    perm = g.c2_perm
    assert perm is not None
    assert sorted(perm) == list(range(1, 13))
    # involution
    assert all(perm[perm[i] - 1] == i + 1 for i in range(12))
    # preserves bonds and distances
    mapped = {(min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1])) for i, j in g.bonds}
    assert mapped == set(g.bonds)
    d = g.distance_matrix
    idx = np.array(perm) - 1
    assert np.allclose(d[np.ix_(idx, idx)], d, atol=1e-10)


def test_distance_symmetry_exact():
    g = build_chain(7, 1.3)
    d = g.distance_matrix
    assert np.array_equal(d, d.T)


def test_translation_invariance():
    g = build_chain(8, 1.397)
    shifted = Geometry(
        name="shifted",
        coords=g.coords + np.array([3.7, -1.2, 0.4]),
        bonds=g.bonds,
    )
    assert np.abs(shifted.distance_matrix - g.distance_matrix).max() < 1e-14


def test_half_cut_examples():
    g = build_chain(10)
    cut = half_cut(g, 5)
    assert cut.left == tuple(range(1, 6))
    g16 = build_chain(16)
    cut = half_cut(g16, 7)
    assert cut.left == tuple(range(1, 8))
    assert cut.right == tuple(range(8, 17))
    with pytest.raises(GeometryError):
        half_cut(g, 0)
    with pytest.raises(GeometryError):
        half_cut(g, 10)


def test_bipartition_invariants():
    with pytest.raises(GeometryError):
        Bipartition((), (1, 2))
    with pytest.raises(GeometryError):
        Bipartition((1, 2), (2, 3))


def test_geometry_invariants():
    with pytest.raises(GeometryError):
        Geometry(name="bad", coords=np.zeros((2, 3)), bonds=((1, 1),))
    with pytest.raises(GeometryError):
        Geometry(name="bad", coords=np.zeros((2, 3)), bonds=((1, 3),))
    with pytest.raises(GeometryError):  # coincident sites
        Geometry(name="bad", coords=np.zeros((2, 3)), bonds=())
    coords = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [-0.0, 1.0, 0.0]])
    with pytest.raises(GeometryError, match="two sites coincide"):  # sites 1 and 3, -0.0 = 0.0
        Geometry(name="bad", coords=coords, bonds=())


def test_chain_is_built_without_a_distance_matrix():
    # the coincidence check holds O(n) memory; an n x n x 3 difference
    # array would make build_chain(3000) peak at 481 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        g = build_chain(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert g.distance(1, 3000) == pytest.approx(2999 * 1.397)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_geometry_rejects_non_finite_coordinates(value):
    coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, value, 0.0]])
    with pytest.raises(GeometryError, match="site 3 coordinates must be finite"):
        Geometry(name="bad", coords=coords, bonds=((1, 2), (2, 3)))
    with pytest.raises(GeometryError, match="finite"):
        build_chain(3, value)


def test_save_load_roundtrip_bit_exact(tmp_path):
    g = build_icosahedron(1.397)
    path = tmp_path / "ico.geom"
    save_geometry(g, path)
    loaded = load_geometry(path)
    assert format_geometry(loaded) == path.read_text(encoding="utf-8")
    assert loaded.bonds == g.bonds
    assert np.array_equal(loaded.coords, g.coords)
    # a two-fold axis is rediscovered on load (bond and distance preserving)
    perm = loaded.c2_perm
    assert perm is not None
    assert all(perm[perm[i] - 1] == i + 1 for i in range(12))
    mapped = {(min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1])) for i, j in loaded.bonds}
    assert mapped == set(loaded.bonds)


def test_load_simple_file(tmp_path):
    path = tmp_path / "two.geom"
    path.write_text("# pair\nsites 2\n1 0 0 0\n2 1.5 0 0\nbonds 1\n1 2\n")
    g = load_geometry(path)
    assert g.n_sites == 2
    assert g.bonds == ((1, 2),)
    assert g.c2_perm == (2, 1)


def test_load_self_pair_reports_line(tmp_path):
    path = tmp_path / "bad.geom"
    path.write_text("sites 3\n1 0 0 0\n2 1 0 0\n3 2 0 0\nbonds 1\n3 3\n")
    with pytest.raises(GeometryError, match="line 6.*self-pair"):
        load_geometry(path)


def test_load_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.geom"
    path.write_text("sites 2\n1 0 0 0\n2 x 0 0\nbonds 0\n")
    with pytest.raises(GeometryError, match="line 3"):
        load_geometry(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("sites 1\n1 0 0 0\nbonds -1\n", "line 3: bond count -1 must be in 0..0"),
        ("sites 2\n1 0 0 0\n2 1 0 0\nbonds 5\n1 2\n", "line 4: bond count 5 must be in 0..1"),
    ],
    ids=["negative", "too-many"],
)
def test_load_rejects_bond_counts_beyond_the_rows_that_follow(tmp_path, text, message):
    path = tmp_path / "bad.geom"
    path.write_text(text)
    with pytest.raises(GeometryError, match=message):
        load_geometry(path)


def test_chain_c2_detected_on_load(tmp_path):
    g = build_chain(6, 1.1)
    path = tmp_path / "chain.geom"
    save_geometry(g, path)
    assert load_geometry(path).c2_perm == (6, 5, 4, 3, 2, 1)


_COUNTS = st.one_of(
    st.integers(-3, 6),
    st.sampled_from(["99999999999", "-99999999999", str(2**63), "2.5", "x", ""]),
)
_NUMBERS = st.one_of(
    st.integers(-4, 4).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0.5", "x"]),
)
_ROWS = st.lists(_NUMBERS, min_size=0, max_size=5).map(" ".join)


@st.composite
def _geometry_texts(draw):
    """Geometry files near the grammar: section words, counts (negative and
    huge ones included) and rows with wrong lengths or tokens."""
    lines = []
    for word in ("sites", "bonds"):
        if draw(st.booleans()):
            lines.append(f"# {draw(st.sampled_from(['ring', '', 'sites 3']))}")
        head = draw(st.sampled_from([word, word, "sites", "bonds", "atoms"]))
        count = draw(_COUNTS)
        lines.append(f"{head} {count}".strip())
        n_rows = draw(st.integers(0, 6))
        width = 4 if word == "sites" else 2
        for k in range(n_rows):
            if draw(st.integers(0, 3)):  # mostly well-shaped rows
                index = str(k + 1) if draw(st.booleans()) else draw(_NUMBERS)
                tail = [draw(_NUMBERS) for _ in range(width - 1)]
                lines.append(" ".join([index, *tail]))
            else:
                lines.append(draw(_ROWS))
    if draw(st.booleans()):
        lines.append(draw(_ROWS))
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(text=_geometry_texts())
def test_load_geometry_fuzz_raises_only_geometry_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.geom"
    path.write_text(text, encoding="utf-8")
    try:
        geometry = load_geometry(path)
    except GeometryError:
        return
    assert 1 <= geometry.n_sites <= text.count("\n")
