"""On-disk formats: feature tables, embedding checkpoints, and the CSV schemas.

Feature binary (magic GVFEAT01): u32 row count, u32 dim, then row-major
little-endian float32, rows in ascending-id order matching the metadata CSV.
Embedding checkpoint (magic GVEMB001): u32 rows, u32 dim, row-major
little-endian float32, with a "<path>.ids" text sidecar of one id per line.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .geo import GeoPoint

FEATURE_MAGIC = b"GVFEAT01"
EMBEDDING_MAGIC = b"GVEMB001"


@dataclass
class StreetViewRecord:
    id: str
    geo: GeoPoint
    neighborhood_id: str | None
    features: np.ndarray | None = None


def ids_sidecar_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.name + ".ids")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside ``path`` for writing and move it over
    ``path`` when the block ends without error; on error the temporary file
    is removed and any previous ``path`` stays as it was. This guards against
    a process dying mid-write, not against power loss (there is no fsync)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_matrix(path, magic: bytes, matrix: np.ndarray) -> None:
    rows, dim = matrix.shape
    with atomic_open(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", rows, dim))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def _read_matrix(path, magic: bytes) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(len(magic))
        if head != magic:
            raise FormatError(f"{path}: bad magic {head!r}, expected {magic!r}")
        header = fh.read(8)
        if len(header) < 8:
            raise FormatError(f"{path}: truncated header, {len(header)} of 8 bytes")
        rows, dim = struct.unpack("<II", header)
        payload = fh.read()
    expected = rows * dim * 4
    if len(payload) != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, dim).astype(np.float32)


def write_feature_bin(path, ids: list[str], features: np.ndarray) -> None:
    if list(ids) != sorted(ids):
        raise ValidationError("feature rows must be written in ascending id order")
    if features.shape[0] != len(ids):
        raise ValidationError(f"{features.shape[0]} feature rows but {len(ids)} ids")
    _write_matrix(path, FEATURE_MAGIC, features)


def read_feature_bin(path) -> np.ndarray:
    return _read_matrix(path, FEATURE_MAGIC)


def write_features_csv(path, ids: list[str], features: np.ndarray) -> None:
    dim = features.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{i + 1}" for i in range(dim)])
        for rid, row in zip(ids, features):
            writer.writerow([rid] + [repr(float(v)) for v in row])


def read_features_csv(path) -> tuple[list[str], np.ndarray]:
    ids, rows = [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "id":
            raise FormatError(f"{path}: expected header starting with 'id'")
        width = len(header) - 1
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) - 1 != width:
                raise FormatError(f"{path}:{lineno}: expected {width} feature values, got {len(row) - 1}")
            ids.append(row[0])
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not ids:
        raise FormatError(f"{path}: no feature rows")
    return ids, np.array(rows, dtype=np.float32)


def write_embeddings(path, ids: list, matrix: np.ndarray) -> None:
    """Checkpoint plus id sidecar; refuses, before writing anything, a matrix
    holding a value that is non-finite or does not fit in float32."""
    if matrix.shape[0] != len(ids):
        raise ValidationError(f"{matrix.shape[0]} embedding rows but {len(ids)} ids")
    with np.errstate(over="ignore"):
        stored = np.asarray(matrix, dtype="<f4")
    if not np.isfinite(stored).all():
        raise ValidationError(f"{path}: embedding values are non-finite or outside the float32 range")
    _write_matrix(path, EMBEDDING_MAGIC, stored)
    with atomic_open(ids_sidecar_path(path), "w", encoding="utf-8") as fh:
        for rid in ids:
            fh.write(f"{rid}\n")


def read_embeddings(path) -> tuple[list[str], np.ndarray]:
    matrix = _read_matrix(path, EMBEDDING_MAGIC)
    sidecar = ids_sidecar_path(path)
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            ids = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise FormatError(f"{sidecar}: missing id sidecar ({exc})") from None
    if len(ids) != matrix.shape[0]:
        raise FormatError(f"{sidecar}: {len(ids)} ids for {matrix.shape[0]} embedding rows")
    return ids, matrix


def write_embeddings_tsv(path, ids: list, matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rid, row in zip(ids, matrix):
            fh.write(rid + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")


def write_sv_metadata(path, records: list[StreetViewRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "lat", "lon", "neighborhood_id"])
        for rec in records:
            writer.writerow([rec.id, repr(rec.geo.lat), repr(rec.geo.lon), rec.neighborhood_id or ""])


def read_sv_metadata(path) -> list[StreetViewRecord]:
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:4]] != ["id", "lat", "lon", "neighborhood_id"]:
            raise FormatError(f"{path}: expected header id,lat,lon,neighborhood_id")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 4:
                raise FormatError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            try:
                geo = GeoPoint(float(row[1]), float(row[2]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno} (street view {row[0]!r}): {exc}") from None
            records.append(StreetViewRecord(id=row[0], geo=geo,
                                            neighborhood_id=row[3] or None))
    if not records:
        raise FormatError(f"{path}: no street-view rows")
    return records


def write_centroids_csv(path, centroids: list[tuple[str, GeoPoint, str | None]]) -> None:
    has_city = any(city for _, _, city in centroids)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "lat", "lon", "city"] if has_city else ["id", "lat", "lon"])
        for cid, point, city in centroids:
            row = [cid, repr(point.lat), repr(point.lon)]
            if has_city:
                row.append(city or "")
            writer.writerow(row)


def read_centroids_csv(path) -> list[tuple[str, GeoPoint, str | None]]:
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["id", "lat", "lon"]:
            raise FormatError(f"{path}: expected header id,lat,lon[,city]")
        has_city = len(header) > 3 and header[3].strip() == "city"
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 3:
                raise FormatError(f"{path}:{lineno}: expected at least 3 columns, got {len(row)}")
            try:
                point = GeoPoint(float(row[1]), float(row[2]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno} (centroid {row[0]!r}): {exc}") from None
            city = row[3] if has_city and len(row) > 3 and row[3] else None
            out.append((row[0], point, city))
    if not out:
        raise FormatError(f"{path}: no centroid rows")
    return out


def write_targets_csv(path, ids: list[str], names: list[str], values: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["neighborhood_id"] + list(names))
        for rid, row in zip(ids, values):
            writer.writerow([rid] + [repr(float(v)) for v in row])


def read_targets_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """(neighborhood ids, target names, N x T value matrix)."""
    ids, rows = [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or len(header) < 2:
            raise FormatError(f"{path}: expected a header with an id column and >= 1 target column")
        names = [h.strip() for h in header[1:]]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            ids.append(row[0])
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not ids:
        raise FormatError(f"{path}: no target rows")
    return ids, names, np.array(rows, dtype=np.float64)
