import json

import numpy as np
import pytest

from edkit.archive import (
    ArchiveChecksumError,
    ArchiveError,
    read_archive,
    read_header,
    write_archive,
)
from edkit.basis import Sector
from edkit.cli import main
from edkit.hamiltonian import ModelSpec, build_model
from edkit.lattice import build_chain
from edkit.solver import EigenSet, dense_spectrum


@pytest.fixture()
def solved(tmp_path):
    g = build_chain(4)
    spec = ModelSpec(kind="hubbard", t=-1.0, U=4.0)
    sector = Sector(4, 0)
    h = build_model(g, spec, sector)
    eig = dense_spectrum(h)
    small = EigenSet(
        values=eig.values[:3].copy(),
        vectors=eig.vectors[:, :3].copy(),
        residuals=eig.residuals[:3].copy(),
        labels=None,
    )
    path = tmp_path / "pairs.edarch"
    write_archive(path, small, g, spec, sector, tol=1e-10, seed=1)
    return path, small, g, spec, sector


def test_roundtrip_exact(solved):
    path, eig, g, spec, sector = solved
    arch = read_archive(path)
    assert np.array_equal(arch.eigenset.values, eig.values)
    assert np.array_equal(arch.eigenset.vectors, eig.vectors)
    assert np.array_equal(arch.eigenset.residuals, eig.residuals)
    assert arch.model == spec
    assert arch.sector == sector
    assert arch.geometry.bonds == g.bonds
    assert np.array_equal(arch.geometry.coords, g.coords)
    assert arch.tol == 1e-10 and arch.seed == 1


def test_header_declares_offsets(solved):
    path, eig, *_ = solved
    header = read_header(path)
    k, dim = header["shape"]
    assert k == 3 and dim == 36
    assert int(header["eigenvectors_offset"]) - int(header["eigenvalues_offset"]) == 8 * k
    assert header["payload_bytes"] == 8 * k + 8 * k * dim
    raw = path.read_bytes()
    assert len(raw) == int(header["payload_offset"]) + header["payload_bytes"]


def test_flipped_byte_fails_checksum(solved):
    path, *_ = solved
    raw = bytearray(path.read_bytes())
    header = read_header(path)
    pos = int(header["payload_offset"]) + 17
    raw[pos] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ArchiveChecksumError, match="bytes"):
        read_archive(path)


def test_truncated_payload_reports_bytes(solved):
    path, *_ = solved
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ArchiveError, match="length mismatch"):
        read_archive(path)


def test_not_an_archive(tmp_path):
    path = tmp_path / "nope.bin"
    path.write_bytes(b"hello world, definitely not an archive")
    with pytest.raises(ArchiveError, match="not an edkit"):
        read_archive(path)


_UNOPENABLE = object()


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda h: h.pop("shape"), "shape"),
        (lambda h: h.update(shape=[3]), "shape"),
        (lambda h: h.update(shape=[-1, 36]), "shape"),
        (lambda h: h.pop("payload_offset"), "payload_offset"),
        (lambda h: h.update(payload_bytes="888"), "payload_bytes"),
        (lambda h: h.update(payload_bytes=8), "payload_bytes"),
        (lambda h: h.pop("checksum_blake2b64"), "checksum_blake2b64"),
        (lambda h: h.pop("tol"), "tol"),
        (lambda h: h.pop("model"), "model"),
        (lambda h: h.update(sector=None), "sector"),
        (lambda h: h.update(residuals=h["residuals"][:-1]), "residuals"),
        (lambda h: h["model"].update(colour="red"), "model"),
        (lambda h: h.update(seed="x"), "seed"),
        (lambda h: h.update(labels=["1_Ag+"]), "labels"),
        (lambda h: h["geometry"].pop("coords"), "geometry"),
        pytest.param(lambda h: h["sector"].update(twice_ms=2), "sector", id="sector-vs-shape"),
        pytest.param(
            lambda h: h["sector"].update(n_electrons=None), "sector", id="sector-vs-model"
        ),
        # no archive file to open: the edit moves the path instead
        pytest.param(_UNOPENABLE, "No such file or directory", id="missing-path"),
        pytest.param(_UNOPENABLE, "Is a directory", id="directory-path"),
        # Python's json reads Infinity and NaN
        pytest.param(lambda h: h.update(tol=float("inf")), "tol", id="tol-inf"),
        pytest.param(lambda h: h.update(tol=float("nan")), "tol", id="tol-nan"),
        pytest.param(lambda h: h.update(tol=0), "tol", id="tol-zero"),
        pytest.param(lambda h: h.update(tol=-1e-10), "tol", id="tol-negative"),
    ],
)
def test_verify_rejects_malformed_header(solved, capsys, edit, field):
    path, *_ = solved
    if edit is _UNOPENABLE:
        path = path.with_name("moved.edarch")
        if field == "Is a directory":
            path.mkdir()
        reason = f"{path}: cannot read archive ({field})"
    else:
        header = read_header(path)
        payload = path.read_bytes()[int(header["payload_offset"]):]
        edit(header)
        blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
        path.write_bytes(f"EDKITARCHIVE1 {len(blob):016d}\n".encode("ascii") + blob + payload)
        reason = f"{path}: header '{field}'"
    with pytest.raises(ArchiveError, match=field):
        read_archive(path)
    assert main(["verify", str(path)]) == 2
    assert f"unreadable archive: {reason}" in capsys.readouterr().err
    cfg = path.with_name("entangle.json")
    cfg.write_text(json.dumps({
        "run": {"task": "entangle", "output": str(path.with_name("out"))},
        "input": {"archive": str(path)},
        "entangle": {"left_size": 2},
    }))
    assert main(["run", str(cfg)]) == 2
    if path.exists():
        assert f"validation error: {reason}" in capsys.readouterr().err
    else:  # the config check finds a missing archive first
        assert f"config error: input archive {path} does not exist" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_verify_tol_must_be_positive_finite(solved, capsys, value):
    path, *_ = solved
    assert main(["verify", str(path), "--tol", value]) == 2
    assert f"--tol must be a positive finite number, got {float(value)!r}" in capsys.readouterr().err
