"""Eigenpair archive: JSON header plus little-endian float64 payload.

Layout:

    EDKITARCHIVE1 <header_bytes:016d>\\n     (32-byte magic line)
    <header JSON, UTF-8>\\n
    <payload: eigenvalues, then eigenvectors row-major (k x dim)>

The header declares absolute byte offsets of both payload parts and a
64-bit BLAKE2b checksum of the payload, and embeds everything needed to
rebuild the Hamiltonian (geometry, model, sector) so archives verify
without external context.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .basis import Sector, SectorError, sector_dimension
from .hamiltonian import ModelSpec
from .lattice import Geometry
from .solver import EigenSet

__all__ = ["ArchiveError", "ArchiveChecksumError", "write_archive", "read_archive", "Archive"]

_MAGIC = "EDKITARCHIVE1"
_MAGIC_LINE_LEN = len(_MAGIC) + 1 + 16 + 1  # "MAGIC <16-digit header length>\n"


class ArchiveError(ValueError):
    pass


class ArchiveChecksumError(ArchiveError):
    pass


def _checksum(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


@dataclass
class Archive:
    """Decoded archive: eigenpairs plus the context that produced them."""

    eigenset: EigenSet
    geometry: Geometry
    model: ModelSpec
    sector: Sector
    tol: float
    seed: int
    header: dict


def _geometry_to_dict(geometry: Geometry) -> dict:
    return {
        "name": geometry.name,
        "coords": [[float(v) for v in row] for row in geometry.coords],
        "bonds": [list(b) for b in geometry.bonds],
        "c2_perm": list(geometry.c2_perm) if geometry.c2_perm else None,
    }


def _geometry_from_dict(d: dict) -> Geometry:
    return Geometry(
        name=d["name"],
        coords=np.array(d["coords"], dtype=float),
        bonds=tuple(tuple(b) for b in d["bonds"]),
        c2_perm=tuple(d["c2_perm"]) if d.get("c2_perm") else None,
    )


def write_archive(
    path,
    eigenset: EigenSet,
    geometry: Geometry,
    model: ModelSpec,
    sector: Sector,
    tol: float,
    seed: int,
) -> None:
    k, dim = eigenset.k, eigenset.dim
    values = np.ascontiguousarray(eigenset.values, dtype="<f8")
    vectors = np.ascontiguousarray(eigenset.vectors.T, dtype="<f8")  # row-major, one state per row
    payload = values.tobytes() + vectors.tobytes()

    header = {
        "format": "edkit-eigenpair-archive",
        "version": 1,
        "payload_offset": "0" * 16,
        "eigenvalues_offset": "0" * 16,
        "eigenvalues_count": k,
        "eigenvectors_offset": "0" * 16,
        "shape": [k, dim],
        "payload_bytes": len(payload),
        "checksum_blake2b64": _checksum(payload),
        "model": asdict(model),
        "geometry": _geometry_to_dict(geometry),
        "sector": {"n_electrons": sector.n_electrons, "twice_ms": sector.twice_ms},
        "labels": eigenset.labels,
        "residuals": [float(r) for r in eigenset.residuals],
        "tol": tol,
        "seed": seed,
    }
    _check_header(path, header)  # the reader's rules: an empty set, say, is refused
    probe = json.dumps(header, sort_keys=True).encode("utf-8")
    header_bytes = len(probe) + 1  # trailing newline
    payload_offset = _MAGIC_LINE_LEN + header_bytes
    header["payload_offset"] = f"{payload_offset:016d}"
    header["eigenvalues_offset"] = f"{payload_offset:016d}"
    header["eigenvectors_offset"] = f"{payload_offset + 8 * k:016d}"
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    if len(blob) + 1 != header_bytes:
        raise ArchiveError("internal error: header size changed while filling offsets")
    magic = f"{_MAGIC} {header_bytes:016d}\n".encode("ascii")
    if len(magic) != _MAGIC_LINE_LEN:
        raise ArchiveError("internal error: malformed magic line")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(blob)
        fh.write(b"\n")
        fh.write(payload)


def read_header(path) -> dict:
    try:
        fh = open(path, "rb")
    except OSError as exc:  # missing, a directory, unreadable
        raise ArchiveError(f"{path}: cannot read archive ({exc.strerror})") from None
    with fh:
        magic = fh.read(_MAGIC_LINE_LEN)
        if len(magic) != _MAGIC_LINE_LEN or not magic.startswith(_MAGIC.encode("ascii")):
            raise ArchiveError(f"{path}: not an edkit eigenpair archive")
        try:
            header_bytes = int(magic[len(_MAGIC) + 1 : -1])
        except ValueError:
            raise ArchiveError(f"{path}: malformed magic line") from None
        blob = fh.read(header_bytes)
        if len(blob) != header_bytes:
            raise ArchiveError(
                f"{path}: truncated header (expected {header_bytes} bytes, got {len(blob)})"
            )
        try:
            return json.loads(blob.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise ArchiveError(f"{path}: header is not valid JSON ({exc})") from None


def _check_header(path, header) -> None:
    """Reject a header whose payload or scalar fields are missing or mistyped;
    `model`, `sector` and `geometry` are checked when they are decoded."""
    if not isinstance(header, dict):
        raise ArchiveError(f"{path}: header is not a JSON object")
    shape = header.get("shape")
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(type(n) is int and n >= 1 for n in shape)
    ):
        raise ArchiveError(f"{path}: header 'shape' must be two positive integers, got {shape!r}")
    offset = header.get("payload_offset")
    if not (isinstance(offset, str) and offset.isdigit()):
        raise ArchiveError(f"{path}: header 'payload_offset' must be a digit string, got {offset!r}")
    size = header.get("payload_bytes")
    k, dim = shape
    if not (type(size) is int and size == 8 * k * (dim + 1)):
        raise ArchiveError(
            f"{path}: header 'payload_bytes' must be {8 * k * (dim + 1)} for shape {shape}, got {size!r}"
        )
    if not isinstance(header.get("checksum_blake2b64"), str):
        raise ArchiveError(f"{path}: header 'checksum_blake2b64' must be a string")
    residuals = header.get("residuals")
    if not (isinstance(residuals, list) and len(residuals) == k and all(map(_is_number, residuals))):
        raise ArchiveError(f"{path}: header 'residuals' must be a list of {k} numbers")
    labels = header.get("labels")
    if not (labels is None or (
        isinstance(labels, list) and len(labels) == k and all(isinstance(x, str) for x in labels)
    )):
        raise ArchiveError(f"{path}: header 'labels' must be null or a list of {k} strings")
    tol = header.get("tol")
    if not (_is_number(tol) and 0 < tol < np.inf):
        raise ArchiveError(f"{path}: header 'tol' must be a positive finite number, got {tol!r}")
    if type(header.get("seed")) is not int:
        raise ArchiveError(f"{path}: header 'seed' must be an integer, got {header.get('seed')!r}")


def _is_number(x) -> bool:
    return type(x) in (int, float)


def _decode(path, header: dict, field: str, build):
    """build(header[field]), with a failure reported as an ArchiveError naming the field."""
    try:
        return build(header[field])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveError(f"{path}: header '{field}' is invalid ({exc!r})") from None


def read_archive(path) -> Archive:
    header = read_header(path)
    _check_header(path, header)
    geometry = _decode(path, header, "geometry", _geometry_from_dict)
    model = _decode(path, header, "model", lambda d: ModelSpec(**d))
    sector = _decode(path, header, "sector", lambda d: Sector(d["n_electrons"], d["twice_ms"]))
    k, dim = header["shape"]
    try:
        sector_dim = sector_dimension(geometry.n_sites, model.kind, sector, model.site_spin)
    except SectorError as exc:
        raise ArchiveError(f"{path}: header 'sector' does not fit the model ({exc})") from None
    if sector_dim != dim:
        raise ArchiveError(
            f"{path}: header 'sector' {sector} has dimension {sector_dim}, "
            f"but 'shape' declares {dim}"
        )
    payload_offset = int(header["payload_offset"])
    with open(path, "rb") as fh:
        fh.seek(payload_offset)
        payload = fh.read()
    expected = int(header["payload_bytes"])
    if len(payload) != expected:
        raise ArchiveError(
            f"{path}: payload length mismatch at byte {payload_offset}: "
            f"expected {expected} bytes, found {len(payload)}"
        )
    if _checksum(payload) != header["checksum_blake2b64"]:
        raise ArchiveChecksumError(
            f"{path}: payload checksum mismatch over bytes "
            f"{payload_offset}..{payload_offset + expected - 1}"
        )
    values = np.frombuffer(payload[: 8 * k], dtype="<f8").copy()
    vectors = np.frombuffer(payload[8 * k :], dtype="<f8").reshape(k, dim).T.copy()
    eig = EigenSet(
        values=values,
        vectors=vectors,
        residuals=np.array(header["residuals"], dtype=float),
        labels=header["labels"] or None,
    )
    return Archive(
        eigenset=eig,
        geometry=geometry,
        model=model,
        sector=sector,
        tol=float(header["tol"]),
        seed=header["seed"],
        header=header,
    )
